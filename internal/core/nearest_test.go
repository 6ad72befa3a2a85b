package core

import (
	"os"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/colf"
	"repro/internal/results"
)

// TestNearestObserveBlockSteadyStateAllocs pins the kernel's allocation
// behaviour on a warm pass — one that has interned every region: folding
// one more block allocates its chunk (four columns, sized once from the
// footer's delivered count) and nothing per row, so two blocks of
// different row counts cost the same constant number of allocations.
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
	for _, bi := range blocks {
		blk, err := colf.NewBlockDecoder().DecodeCols(file, bi, p.Columns())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ObserveBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	// The first block is full and the last one short.
	first, last := blocks[0], blocks[len(blocks)-1]
	var rows [2]int
	var allocs [2]float64
	for k, bi := range []colf.BlockInfo{first, last} {
		blk, err := colf.NewBlockDecoder().DecodeCols(file, bi, p.Columns())
		if err != nil {
			t.Fatal(err)
		}
		rows[k] = blk.Rows()
		allocs[k] = testing.AllocsPerRun(20, func() {
			if err := p.ObserveBlock(blk); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("%.0f and %.0f allocations per %d- and %d-row block", allocs[0], allocs[1], rows[0], rows[1])
	if rows[0] == rows[1] {
		t.Fatalf("both blocks hold %d rows; the test needs two sizes", rows[0])
	}
	// Four columns, plus an occasional growth of the chunk list that the
	// average over runs rounds away.
	for k := range allocs {
		if allocs[k] != 4 {
			t.Errorf("warm ObserveBlock allocates %.0f times for a %d-row block, want 4 (its chunk)", allocs[k], rows[k])
		}
	}
}

// TestNearestChunkBytes pins the row buffer's size on a real store,
// whose rows come in campaign rounds that each share one timestamp: a
// chunk holds 14 bytes per kept row (probe, region id, RTT) and 16 per
// run of one timestamp, and a block holds a handful of runs, not one per
// row. Per-row timestamps would cost 22 bytes per row.
func TestNearestChunkBytes(t *testing.T) {
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
	p := NewNearestPass(f.idx, f.cfg.Start, passBinWidth)
	empty, _ := p.residentBytes()
	for _, bi := range blocks {
		blk, err := colf.NewBlockDecoder().DecodeCols(file, bi, p.Columns())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ObserveBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	kept, runs := 0, 0
	for _, c := range p.chunks {
		kept += len(c.rtt)
		runs += len(c.times)
	}
	rows, _ := p.residentBytes()
	chunks := rows - empty - int64(cap(p.chunks))*int64(unsafe.Sizeof(rowChunk{}))
	t.Logf("%d kept rows in %d chunks, %d time runs: %d bytes, %.2f per row", kept, len(p.chunks), runs, chunks, float64(chunks)/float64(kept))
	if kept == 0 || runs*100 > kept {
		t.Fatalf("%d kept rows in %d time runs; the test needs round-structured blocks", kept, runs)
	}
	if limit := int64(14*kept + 16*runs); chunks > limit {
		t.Errorf("the chunks hold %d bytes, over 14 per kept row plus 16 per time run (%d)", chunks, limit)
	}
}

// TestNearestMergeTieKeepsReceiversRow pins Merge's tie rule across
// chunks: when the later pass's best RTT equals the receiver's, the
// receiver's row — the earlier one in file order — stays the probe's
// best, so its region's rows are the ones Figure 6 keeps. The later pass
// interns its regions in another order, so its chunk's ids are
// relabelled on the way in.
func TestNearestMergeTieKeepsReceiversRow(t *testing.T) {
	f := dataset(t)
	probe, _ := lastMileProbes(t, f.idx)
	ct, _ := f.idx.Continent(probe)
	start := f.cfg.Start
	type row struct {
		code uint32
		rtt  float64
	}
	block := func(dict []string, rows ...row) *colf.Block {
		blk := &colf.Block{Dict: dict}
		for i, r := range rows {
			blk.Probe = append(blk.Probe, probe)
			blk.TimeNano = append(blk.TimeNano, start.Add(time.Duration(i)*time.Hour).UnixNano())
			blk.RTT = append(blk.RTT, r.rtt)
			blk.Lost = append(blk.Lost, false)
			blk.RegionID = append(blk.RegionID, r.code)
		}
		return blk
	}
	observe := func(p *NearestPass, blks ...*colf.Block) {
		t.Helper()
		for _, blk := range blks {
			if err := p.ObserveBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	recv := NewNearestPass(f.idx, start, passBinWidth)
	observe(recv,
		block([]string{"AWS/a"}, row{0, 10}),
		block([]string{"AWS/a", "AWS/c"}, row{0, 20}, row{1, 15}))
	later := NewNearestPass(f.idx, start, passBinWidth)
	observe(later, block([]string{"AWS/b", "AWS/a"}, row{0, 10}, row{1, 40}, row{0, 30}))
	if err := recv.Merge(later); err != nil {
		t.Fatal(err)
	}
	if len(recv.chunks) != 3 {
		t.Fatalf("merged pass holds %d chunks, want the receiver's 2 and the later pass's 1", len(recv.chunks))
	}
	if best := recv.best[probe]; recv.regions[best.region] != "AWS/a" || best.rtt != 10 {
		t.Fatalf("best row %s at %v, want the receiver's AWS/a at 10", recv.regions[best.region], best.rtt)
	}
	rep, err := recv.FullDist()
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.N(ct); n != 3 {
		t.Errorf("Figure 6 keeps %d rows, want AWS/a's 3", n)
	}
	if max, err := rep.Quantile(ct, 1); err != nil || max != 40 {
		t.Errorf("Figure 6 maximum %v (%v), want AWS/a's 40 from the later chunk", max, err)
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
