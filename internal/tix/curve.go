package tix

import (
	"fmt"
	"math"

	"repro/internal/colf"
	"repro/internal/geo"
)

// Curve grids. Per continent, a block's samples are counted into the
// integer-millisecond bins of the fixed figure grid (1..curveBins ms —
// the axis core.DefaultGrid serves), so a window's whole CDF curve
// composes by integer arithmetic over prefix sums plus the edge folds.
// The per-query cost is O(bins) regardless of how many samples or
// blocks the window holds — the slabs are only touched for quantiles.
//
// Bin k < curveBins holds the samples v with ceil(v) = k+1 (v <= 0
// clamps into bin 0); bin curveBins holds every sample past the grid.
// Summed cumulatively, count[k] is then exactly |{v : v <= k+1}| — the
// same integer Dist.CDF computes at grid point x = k+1 — so the division
// float64(count[k])/float64(N) reproduces the swept curve bit for bit,
// and count[curveBins] is N.
const curveBins = 400

// numContinents sizes the per-continent arrays; geo.Continent values
// index them directly and slot 0 (ContinentUnknown) stays empty.
const numContinents = int(geo.SouthAmerica) + 1

// counts holds one value per continent and bin, bins 0..curveBins.
type counts [numContinents][curveBins + 1]uint64

// prefix is one resident prefix row: the totals of every block before
// it. bins[ct][k] counts ct's samples in bins 0..k, so bins[ct][curveBins]
// is ct's sample count. Rows are immutable once appended; the Index and
// all its views share them.
type prefix struct {
	rows, delivered uint64
	bins            counts
}

// curveBin maps one finite sample to its bin.
func curveBin(v float64) int {
	switch {
	case v > curveBins:
		return curveBins
	case v <= 1:
		return 0
	}
	return int(math.Ceil(v)) - 1
}

// rowSel selects the rows of one decoded block a piece folds: the index
// range [lo, hi) and, when the block's time column is not monotone
// (timed), a per-row test against the window — the slow edge path that
// keeps the semantics of colf.Predicate.MatchRow on every row.
type rowSel struct {
	lo, hi       int
	timed        bool
	since, until int64
}

func (s rowSel) keep(blk *colf.Block, i int) bool {
	return !s.timed || (blk.TimeNano[i] >= s.since && blk.TimeNano[i] < s.until)
}

// count returns how many rows s selects and how many of them were
// delivered.
func (s rowSel) count(blk *colf.Block) (rows, delivered uint64) {
	for i := s.lo; i < s.hi; i++ {
		if !s.keep(blk, i) {
			continue
		}
		rows++
		if !blk.Lost[i] {
			delivered++
		}
	}
	return rows, delivered
}

// foldGrid is the count-only kernel of the curve path: every selected
// delivered row of a resolved probe bumps one bin of its continent in c
// (per-bin, not yet cumulative) — no sort, and the continent comes from
// the dense probe table instead of a map lookup. It rejects exactly the
// samples Dist.Add would. Row totals are the caller's (see rowSel.count).
func foldGrid(c *counts, tbl []geo.Continent, blk *colf.Block, s rowSel) error {
	for i := s.lo; i < s.hi; i++ {
		if blk.Lost[i] || !s.keep(blk, i) {
			continue
		}
		p := blk.Probe[i]
		if uint(p) >= uint(len(tbl)) || tbl[p] == geo.ContinentUnknown {
			continue
		}
		v := blk.RTT[i]
		if v-v != 0 { // NaN or ±Inf
			return fmt.Errorf("tix: invalid sample %v", v)
		}
		c[tbl[p]][curveBin(v)]++
	}
	return nil
}
