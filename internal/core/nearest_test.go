package core

import (
	"os"
	"testing"

	"repro/internal/colf"
	"repro/internal/results"
)

// TestNearestObserveBlockSteadyStateAllocs pins the kernel's allocation
// behaviour on a warm pass — one that has interned every region and
// whose columns have grown past their first few doublings: folding one
// more block appends to three columns per probe and nothing else, so
// the allocations are the occasional amortized column growth, far below
// one per row and below one per (probe, region) pair of the block.
func TestNearestObserveBlockSteadyStateAllocs(t *testing.T) {
	f := dataset(t)
	dir := t.TempDir()
	_, sink, err := results.Create(dir, f.cfg.Meta(11, f.pop.Len(), 1), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	writeSession(t, sink, fixtureSamples(t, 60000))
	r, closer, err := colf.Open(dir + "/samples.bin")
	if err != nil {
		t.Fatal(err)
	}
	blocks := append([]colf.BlockInfo(nil), r.Blocks()...)
	closer.Close()
	file, err := os.Open(dir + "/samples.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if len(blocks) < 3 {
		t.Fatalf("store holds %d blocks, test needs a few", len(blocks))
	}
	p := NewNearestPass(f.idx)
	dec := colf.NewBlockDecoder()
	observe := func(bi colf.BlockInfo) *colf.Block {
		blk, err := dec.DecodeCols(file, bi, p.Columns())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ObserveBlock(blk); err != nil {
			t.Fatal(err)
		}
		return blk
	}
	// Three passes over the store put a few hundred rows behind every
	// probe, as a paper-scale campaign does within its first week.
	for pass := 0; pass < 3; pass++ {
		for _, bi := range blocks {
			observe(bi)
		}
	}
	blk := observe(blocks[0])
	pairs := map[[2]int]bool{}
	for i, probe := range blk.Probe {
		if !blk.Lost[i] && f.idx.Known(probe) {
			pairs[[2]int{probe, int(blk.RegionID[i])}] = true
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := p.ObserveBlock(blk); err != nil {
			t.Fatal(err)
		}
	})
	rows := float64(blk.Rows())
	t.Logf("%.0f allocations per %d-row block holding %d (probe, region) pairs", allocs, blk.Rows(), len(pairs))
	if allocs > rows/32 || allocs > float64(len(pairs))/8 {
		t.Errorf("warm ObserveBlock allocates %.0f times for %.0f rows and %d (probe, region) pairs", allocs, rows, len(pairs))
	}
}
