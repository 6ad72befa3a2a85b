package core

import (
	"os"
	"strings"
	"testing"
	"time"

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
	p := NewNearestPass(f.idx, f.cfg.Start, passBinWidth)
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

// lastMileProbes returns one wired and one wireless probe Figure 7
// admits.
func lastMileProbes(t *testing.T, idx *Index) (wired, wireless int) {
	t.Helper()
	for id, info := range idx.byID {
		switch {
		case !info.known || !info.lastMile():
		case info.access == AccessWired && wired == 0:
			wired = id
		case info.access == AccessWireless && wireless == 0:
			wireless = id
		}
	}
	if wired == 0 || wireless == 0 {
		t.Fatal("the fixture has no wired or no wireless Figure 7 probe")
	}
	return wired, wireless
}

// TestLastMileBinning pins Figure 7's binning: a sample falls in bin
// ⌊(t − start) / width⌋, a bin reports its N, median and quartiles, empty
// bins are skipped and the points come in time order.
func TestLastMileBinning(t *testing.T) {
	f := dataset(t)
	wired, wireless := lastMileProbes(t, f.idx)
	start := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	p := NewNearestPass(f.idx, start, 24*time.Hour)
	observe := func(probe int, at time.Duration, rtt float64) {
		t.Helper()
		if err := p.Observe(results.Sample{ProbeID: probe, Region: "AWS/r", RTTms: rtt, Time: start.Add(at)}); err != nil {
			t.Fatal(err)
		}
	}
	// Day 0: 10, 20, 30 -> median 20. Day 2: 100 -> median 100.
	for _, v := range []float64{10, 20, 30} {
		observe(wired, time.Hour, v)
	}
	observe(wired, 49*time.Hour, 100)
	observe(wireless, 0, 50)
	rep, err := p.LastMile()
	if err != nil {
		t.Fatal(err)
	}
	pts := rep.Wired
	if len(pts) != 2 || len(rep.Wireless) != 1 {
		t.Fatalf("got %d wired and %d wireless points, want 2 (empty day skipped) and 1", len(pts), len(rep.Wireless))
	}
	if pts[0].Median != 20 || pts[0].P25 != 15 || pts[0].P75 != 25 || pts[0].N != 3 || !pts[0].Start.Equal(start) {
		t.Errorf("day 0 = %+v", pts[0])
	}
	if pts[1].Median != 100 || pts[1].N != 1 || !pts[1].Start.Equal(start.Add(48*time.Hour)) {
		t.Errorf("day 2 = %+v", pts[1])
	}
}

// TestLastMileValidation pins the geometry's refusals: a suite with a
// non-positive bin width fails before any scanning, and a kept sample
// before the series start fails the report rather than landing in a
// negative bin.
func TestLastMileValidation(t *testing.T) {
	f := dataset(t)
	start := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	if _, err := NewSuite(f.idx, start, 0); err == nil || err.Error() != "stats: non-positive bin width 0s" {
		t.Errorf("zero width: err = %v", err)
	}
	wired, wireless := lastMileProbes(t, f.idx)
	p := NewNearestPass(f.idx, start, time.Hour)
	for _, s := range []results.Sample{
		{ProbeID: wired, Region: "AWS/r", RTTms: 1, Time: start.Add(-time.Minute)},
		{ProbeID: wireless, Region: "AWS/r", RTTms: 1, Time: start},
	} {
		if err := p.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.LastMile(); err == nil || !strings.Contains(err.Error(), "precedes series start") {
		t.Errorf("pre-start sample: err = %v", err)
	}
}
