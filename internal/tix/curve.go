package tix

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

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

// Edge codes: a block a window cuts is coded once, one uint16 per row —
// ct·(curveBins+1) + bin for a delivered row of a resolved probe, else a
// sentinel in the ContinentUnknown row of counts, which no sample
// reaches. A row range then folds as one histogram pass: its length is
// its rows, codeLost's count its undelivered ones.
const (
	codeLost = iota
	codeUnresolved
	_ = uint16(numContinents*(curveBins+1) - 1) // the largest code fits
)

// edgeCodes is one block's codes and time runs: each distinct timestamp,
// ascending, and its first row (first ends with the row count).
type edgeCodes struct {
	codes []uint16
	times []int64
	first []int32
}

// code codes blk's rows under tbl into e, reusing its slices, rejecting
// exactly the samples Dist.Add would, and takes its time runs if it was
// decoded with colf.ColTime; a time column that steps backwards has none.
func (e *edgeCodes) code(blk *colf.Block, tbl []geo.Continent) error {
	e.codes, e.times, e.first = slices.Grow(e.codes[:0], blk.Rows())[:blk.Rows()], e.times[:0], e.first[:0]
	for i := range e.codes {
		p := blk.Probe[i]
		switch {
		case blk.Lost[i]:
			e.codes[i] = codeLost
		case uint(p) >= uint(len(tbl)) || tbl[p] == geo.ContinentUnknown:
			e.codes[i] = codeUnresolved
		case blk.RTT[i]-blk.RTT[i] != 0: // NaN or ±Inf
			return fmt.Errorf("invalid sample %v", blk.RTT[i])
		default:
			e.codes[i] = uint16(int(tbl[p])*(curveBins+1) + curveBin(blk.RTT[i]))
		}
	}
	for i, t := range blk.TimeNano {
		if i > 0 && t < blk.TimeNano[i-1] {
			return fmt.Errorf("time steps backwards at row %d", i)
		}
		if i == 0 || t != blk.TimeNano[i-1] {
			e.times, e.first = append(e.times, t), append(e.first, int32(i))
		}
	}
	e.first = append(e.first, int32(len(e.codes)))
	return nil
}

// rows returns the rows [lo, hi) whose timestamps lie in [since, until).
func (e *edgeCodes) rows(since, until int64) (lo, hi int) {
	i, _ := slices.BinarySearch(e.times, since)
	j, _ := slices.BinarySearch(e.times, until)
	return int(e.first[i]), int(e.first[j])
}

// fold counts codes [lo, hi) into c, per bin (not yet cumulative).
func (e *edgeCodes) fold(c *counts, lo, hi int) {
	flat := (*[numContinents * (curveBins + 1)]uint64)(unsafe.Pointer(c))
	for _, code := range e.codes[lo:hi] {
		flat[code]++
	}
}

// values appends the RTT of each row in [lo, hi) coded to a continent.
func (e *edgeCodes) values(vals *[numContinents][]float64, rtt []float64, lo, hi int) {
	for i, code := range e.codes[lo:hi] {
		if ct := code / (curveBins + 1); ct != 0 {
			vals[ct] = append(vals[ct], rtt[lo+i])
		}
	}
}
