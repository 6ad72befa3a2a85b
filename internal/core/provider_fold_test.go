package core_test

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/world"
)

// TestProviderPassIsSequentialFold: the §4.1 provider table is the
// sequential fold of the store, without the garbage of growing it. On
// the golden run's world (250 probes, seed 1, seven days):
//   - at 1, 2 and 3 scan workers every provider's row equals what a
//     stats.Dist the rows were added to one at a time, in file order,
//     summarizes — every Summary field bit for bit, Mean and StdDev
//     included — with the same loss count and rate;
//   - a NaN RTT fails the fold as Dist.Add fails it;
//   - folding the blocks allocates each delivered RTT once: 8 bytes a
//     row, plus a bounded amount per block. A buffer grown by append
//     allocates several times the 8 bytes a row.
func TestProviderPassIsSequentialFold(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 1, Probes: 250})
	if err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	cfg.End = cfg.Start.Add(7 * 24 * time.Hour)
	store, sink, err := results.Create(t.TempDir(), cfg.Meta(1, w.Probes.Len(), w.Catalog.Len()), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, sink.Write); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	type fold struct {
		d    stats.Dist
		lost int
	}
	want := map[string]*fold{}
	delivered := 0
	err = store.ForEach(func(s results.Sample) error {
		provider, _, ok := strings.Cut(s.Region, "/")
		if !ok || !w.Index.Known(s.ProbeID) {
			return nil
		}
		f := want[provider]
		if f == nil {
			f = &fold{}
			want[provider] = f
		}
		if s.Lost {
			f.lost++
			return nil
		}
		delivered++
		return f.d.Add(s.RTTms)
	})
	if err != nil {
		t.Fatal(err)
	}
	summaries := map[string]stats.Summary{}
	for provider, f := range want {
		if summaries[provider], err = f.d.Summarize(); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2, 3} {
		rep, _, err := core.ScanStoreSnap(context.Background(), store, w.Index, cfg.Start, 7*24*time.Hour, workers, nil,
			core.SnapshotOptions{Passes: core.PassProvider})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Provider.Rows) != len(want) {
			t.Fatalf("workers=%d: %d provider rows, the fold has %d providers", workers, len(rep.Provider.Rows), len(want))
		}
		for _, row := range rep.Provider.Rows {
			f, sum := want[row.Provider], summaries[row.Provider]
			if f == nil || !sameBits(row.Summary, sum) || row.Lost != f.lost ||
				row.LossRate != float64(f.lost)/float64(f.d.N()+f.lost) {
				t.Errorf("workers=%d %s: %+v lost %d, the sequential fold %+v lost %d", workers, row.Provider, row.Summary, row.Lost, sum, f.lost)
			}
		}
	}

	sf, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	var blocks []*colf.Block
	for _, bi := range sf.Blocks() {
		blk, err := colf.NewBlockDecoder().DecodeCols(sf, bi, colf.ColRegionIDs)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
	}
	pass := core.NewProviderPass(w.Index)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, blk := range blocks {
		if err := pass.ObserveBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Per block: the allocator's size-class rounding of one chunk per
	// provider, and the chunk lists' amortized growth.
	const perBlock = 16 << 10
	got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*delivered+perBlock*len(blocks))
	t.Logf("folding %d blocks (%d delivered rows) allocated %d B; bound %d B", len(blocks), delivered, got, bound)
	if got > bound {
		t.Errorf("folding %d blocks of %d delivered rows allocated %d B, over %d B", len(blocks), delivered, got, bound)
	}

	// A NaN in one delivered row of a known probe fails the fold.
	blk := blocks[0]
	for i := range blk.Probe {
		if !blk.Lost[i] && w.Index.Known(blk.Probe[i]) {
			blk.RTT[i] = math.NaN()
			break
		}
	}
	bad := core.NewProviderPass(w.Index)
	err = bad.ObserveBlock(blk)
	if err == nil {
		_, err = bad.Report()
	}
	if err == nil || !strings.Contains(err.Error(), "stats: invalid sample") {
		t.Errorf("a NaN RTT: fold error %v, want stats: invalid sample", err)
	}
}

// sameBits reports whether two summaries agree in N and in the bits of
// every float field.
func sameBits(a, b stats.Summary) bool {
	af := []float64{a.Min, a.P25, a.Median, a.P75, a.P95, a.Max, a.Mean, a.StdDev}
	bf := []float64{b.Min, b.P25, b.Median, b.P75, b.P95, b.Max, b.Mean, b.StdDev}
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return false
		}
	}
	return a.N == b.N
}
