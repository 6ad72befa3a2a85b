package tix

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/snap"
)

// kernelResult is a loaded window over one covered record holding
// Europe's slab, plus edge values, with counts derived from both.
func kernelResult(slab, edge []float64) *Result {
	var raw []byte
	for _, v := range slab {
		raw = snap.AppendFloat(raw, v)
	}
	r := &Result{slabs: []slabs{{geo.Europe: raw}}, loaded: true}
	r.edge[geo.Europe] = edge
	c := &r.cum[geo.Europe]
	for _, v := range append(slices.Clone(slab), edge...) {
		c[curveBin(v)]++
	}
	for k := 1; k <= curveBins; k++ {
		c[k] += c[k-1]
	}
	return r
}

// TestOrderStatGathersTheBin: every rank of a window split between a
// slab and edge values — bin 0, shared bins, duplicates across the two,
// past the grid — selects the order statistic of the union.
func TestOrderStatGathersTheBin(t *testing.T) {
	slab := []float64{0.25, 1, 2.5, 2.5, 3, 399.5, 400, 401, 1e4}
	edge := []float64{2.5, 0.5, 1e4, 3, 2.75}
	r := kernelResult(slab, edge)
	want := append(slices.Clone(slab), edge...)
	slices.Sort(want)
	for k := range want {
		got, err := r.orderStat(geo.Europe, k)
		if err != nil || got != want[k] {
			t.Fatalf("rank %d = %v (%v), want %v", k, got, err, want[k])
		}
	}
}

// TestOrderStatRejectsMismatchedGather: when a slab no longer agrees
// with the counts its record was validated against, the selection
// errors instead of answering.
func TestOrderStatRejectsMismatchedGather(t *testing.T) {
	r := kernelResult([]float64{2, 3, 3.5}, nil)
	// The slab's middle sample moves from bin 2 to bin 1; the counts
	// still say bin 2.
	r.slabs[0][geo.Europe] = snap.AppendFloat(snap.AppendFloat(snap.AppendFloat(nil, 1.5), 2), 3.5)
	if v, err := r.orderStat(geo.Europe, 1); err == nil || !strings.Contains(err.Error(), "counts say") {
		t.Fatalf("mismatched gather answered %v, err %v", v, err)
	}
}
