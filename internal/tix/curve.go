package tix

import (
	"fmt"
	"math"

	"repro/internal/colf"
	"repro/internal/geo"
)

// Curve pre-aggregates. Every node stores, per continent, how many of
// its samples fall into each integer-millisecond bin of the fixed
// figure grid (1..curveBins ms — the axis core.DefaultGrid serves), so
// a window's whole CDF curve composes by integer vector addition over
// the O(log n) nodes plus the edge folds, and one prefix sum at the
// end. The per-query cost is O(log n · bins) regardless of how many
// samples the window holds — the sample buffers are only touched for
// quantiles.
//
// Bin k holds the samples v with ceil(v) = k+1 (v <= 0 clamps into bin
// 0; v past the grid lands in no bin but still counts toward N). The
// prefix sum through bin k is then exactly |{v : v <= k+1}| — the same
// integer Dist.CDF computes at grid point x = k+1 — so the final
// division float64(cum)/float64(N) reproduces the swept curve bit for
// bit.
const curveBins = 400

// numContinents sizes the per-continent arrays; geo.Continent values
// index them directly and slot 0 (ContinentUnknown) stays empty.
const numContinents = int(geo.SouthAmerica) + 1

// grid is everything the curve path needs from one piece of a window —
// a stored node, a fully covered leaf block, or the in-window rows of
// an edge block: the rows it covers and, per continent, the resolved
// sample count N and the per-bin counts. Bins are uint32: a stored
// node holds fewer than 2^29 samples (maxRecordBytes) and a block far
// fewer. A published grid is immutable — node directories, the leaf
// memo and every View share it by pointer.
type grid struct {
	rows, delivered uint64
	n               [numContinents]uint64
	bins            [numContinents][]uint32 // nil until the continent counts a sample
}

// row returns ct's bin vector, creating it on first use.
func (g *grid) row(ct geo.Continent) []uint32 {
	if g.bins[ct] == nil {
		g.bins[ct] = make([]uint32, curveBins)
	}
	return g.bins[ct]
}

// add folds o into g.
func (g *grid) add(o *grid) {
	g.rows += o.rows
	g.delivered += o.delivered
	for ct, ob := range o.bins {
		g.n[ct] += o.n[ct]
		if ob == nil {
			continue
		}
		dst := g.row(geo.Continent(ct))
		for k, x := range ob {
			dst[k] += x
		}
	}
}

// curveBin maps one sample to its increment bin, or -1 when the sample
// lies past the grid. Samples pass Dist.Add validation before they are
// bucketed, so NaN and infinities never reach here.
func curveBin(v float64) int {
	if v > curveBins {
		return -1
	}
	k := int(math.Ceil(v)) - 1
	if k < 0 {
		k = 0
	}
	return k
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
// delivered row of a resolved probe bumps its continent's N and one bin
// — no stats.Dist, no sort, and the continent comes from the dense
// probe table instead of a map lookup. It rejects exactly the samples
// Dist.Add would. Row totals are the caller's (see rowSel.count).
func foldGrid(g *grid, tbl []geo.Continent, blk *colf.Block, s rowSel) error {
	for i := s.lo; i < s.hi; i++ {
		if blk.Lost[i] || !s.keep(blk, i) {
			continue
		}
		p := blk.Probe[i]
		if uint(p) >= uint(len(tbl)) || tbl[p] == geo.ContinentUnknown {
			continue
		}
		ct, v := tbl[p], blk.RTT[i]
		if v-v != 0 { // NaN or ±Inf
			return fmt.Errorf("stats: invalid sample %v", v)
		}
		g.n[ct]++
		if k := curveBin(v); k >= 0 {
			g.row(ct)[k]++
		}
	}
	return nil
}
