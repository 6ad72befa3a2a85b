package tix

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/snap"
)

// kernelView opens a real one-record index — a sidecar written to disk
// and validated by Open — whose block holds slab (ascending) as Europe's
// samples, and returns a view over it.
func kernelView(t *testing.T, slab []float64) *View {
	t.Helper()
	h := header{startOff: 8, endOff: 64, rows: uint64(len(slab)), delivered: uint64(len(slab))}
	var vals [numContinents][]float64
	vals[geo.Europe] = slab
	b := Binding{PassSet: PassSetCDF}
	path := filepath.Join(t.TempDir(), "samples.tix")
	if err := os.WriteFile(path, snap.Image(b, encodeBlock(nil, h, &vals)), 0o644); err != nil {
		t.Fatal(err)
	}
	blocks := []colf.BlockInfo{{Off: h.startOff, Len: h.endOff - h.startOff, Zone: colf.Zone{Rows: len(slab), Delivered: len(slab)}}}
	ix, err := Open(path, b, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if ix.Nodes() != 1 {
		t.Fatalf("Open kept %d records, want 1", ix.Nodes())
	}
	return ix.View()
}

// kernelResult is the window over v's one covered record plus edge
// values, with counts composed from its prefix row and the edge bins.
func kernelResult(v *View, edge []float64) *Result {
	r := &Result{ctx: context.Background(), v: v, runs: [][2]int{{0, 1}}, loaded: true}
	r.edge[geo.Europe] = edge
	c := &r.cum[geo.Europe]
	for _, x := range edge {
		c[curveBin(x)]++
	}
	for k := 1; k <= curveBins; k++ {
		c[k] += c[k-1]
	}
	for k := range c {
		c[k] += v.cum[1].bins[geo.Europe][k] - v.cum[0].bins[geo.Europe][k]
	}
	return r
}

// TestOrderStatGathersTheBin: every rank of a window split between a
// slab and edge values — bin 0, shared bins, duplicates across the two,
// past the grid — selects the order statistic of the union.
func TestOrderStatGathersTheBin(t *testing.T) {
	slab := []float64{0.25, 1, 2.5, 2.5, 3, 399.5, 400, 401, 1e4}
	edge := []float64{2.5, 0.5, 1e4, 3, 2.75}
	r := kernelResult(kernelView(t, slab), edge)
	want := append(slices.Clone(slab), edge...)
	slices.Sort(want)
	for k := range want {
		got, err := r.orderStat(geo.Europe, k)
		if err != nil || got != want[k] {
			t.Fatalf("rank %d = %v (%v), want %v", k, got, err, want[k])
		}
	}
	if r.Stats.SlabBytes == 0 {
		t.Fatal("gathered the slab's bins without reading it")
	}
}

// TestOrderStatRejectsMismatchedGather: when a slab value lies outside
// the bin its prefix row names, the selection errors instead of
// answering.
func TestOrderStatRejectsMismatchedGather(t *testing.T) {
	v := kernelView(t, []float64{2, 3, 3.5})
	// The prefix row now places the slab's middle sample, 3, in bin 1 —
	// (1, 2] — beside 2.
	v.cum[1].bins[geo.Europe][1]++
	r := kernelResult(v, nil)
	if got, err := r.orderStat(geo.Europe, 1); err == nil || !strings.Contains(err.Error(), "outside bin 1") {
		t.Fatalf("mismatched gather answered %v, err %v", got, err)
	}
}
