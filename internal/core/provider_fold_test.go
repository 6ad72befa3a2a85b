package core_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/world"
)

// The golden run's world (250 probes, seed 1) and a seven-day campaign
// over it in a store, built on first use and removed by TestMain.
var (
	goldenOnce  sync.Once
	goldenDir   string
	goldenErr   error
	goldenWorld *world.World
	goldenCfg   atlas.CampaignConfig
	goldenStore *results.Store
)

func goldenDataset(t *testing.T) (*world.World, atlas.CampaignConfig, *results.Store) {
	t.Helper()
	goldenOnce.Do(func() {
		if goldenWorld, goldenErr = world.Build(world.Config{Seed: 1, Probes: 250}); goldenErr != nil {
			return
		}
		if goldenDir, goldenErr = os.MkdirTemp("", "core-golden-*"); goldenErr != nil {
			return
		}
		goldenCfg = atlas.TestCampaign()
		goldenCfg.End = goldenCfg.Start.Add(7 * 24 * time.Hour)
		var sink *results.Sink
		meta := goldenCfg.Meta(1, goldenWorld.Probes.Len(), goldenWorld.Catalog.Len())
		if goldenStore, sink, goldenErr = results.Create(goldenDir, meta, results.FormatBinary); goldenErr != nil {
			return
		}
		if _, goldenErr = goldenWorld.Platform.RunCampaign(context.Background(), goldenCfg, sink.Write); goldenErr != nil {
			sink.Close()
			return
		}
		goldenErr = sink.Close()
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenWorld, goldenCfg, goldenStore
}

// providerFold is the §4.1 table's definition folded row by row in file
// order: per provider, the delivered RTTs of the known probes' rows to
// its "provider/…" regions added one at a time, and their lost rows.
type providerFold struct {
	d    stats.Dist
	lost int
}

func foldProviders(t *testing.T, src core.Source, idx *core.Index) map[string]*providerFold {
	t.Helper()
	want := map[string]*providerFold{}
	err := src.ForEach(func(s results.Sample) error {
		provider, _, ok := strings.Cut(s.Region, "/")
		if !ok || !idx.Known(s.ProbeID) {
			return nil
		}
		f := want[provider]
		if f == nil {
			f = &providerFold{}
			want[provider] = f
		}
		if s.Lost {
			f.lost++
			return nil
		}
		return f.d.Add(s.RTTms)
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkProviders holds a §4.1 table to the row fold: one row per
// provider with a delivered row, every Summary field bit for bit, the
// same loss count and rate.
func checkProviders(t *testing.T, label string, rep *core.ProviderReport, want map[string]*providerFold) {
	t.Helper()
	rows := 0
	for _, f := range want {
		if f.d.N() > 0 {
			rows++
		}
	}
	if len(rep.Rows) != rows {
		t.Errorf("%s: %d provider rows, the fold has %d providers with a delivered row", label, len(rep.Rows), rows)
	}
	for _, row := range rep.Rows {
		f := want[row.Provider]
		if f == nil {
			t.Errorf("%s: a row for %s, which the fold does not have", label, row.Provider)
			continue
		}
		sum, err := f.d.Summarize()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(row.Summary, sum) || row.Lost != f.lost || row.LossRate != float64(f.lost)/float64(f.d.N()+f.lost) {
			t.Errorf("%s %s: %+v lost %d rate %v, the sequential fold %+v lost %d", label, row.Provider, row.Summary, row.Lost, row.LossRate, sum, f.lost)
		}
	}
}

// TestProviderTableIsSequentialFold: the §4.1 provider table, which
// NearestPass derives from its row buffer, is the sequential fold of the
// store. On the golden run's world, seven days:
//   - at 1, 2 and 3 scan workers every provider's row equals what a
//     stats.Dist the rows were added to one at a time, in file order,
//     summarizes — every Summary field bit for bit, Mean and StdDev
//     included — with the same loss count and rate;
//   - a NaN RTT fails the report as Dist.Add fails it;
//   - the report allocates one buffer of 8 bytes per row of the largest
//     provider, plus a small constant. A buffer per provider allocates
//     8 bytes for every delivered row.
func TestProviderTableIsSequentialFold(t *testing.T) {
	const week = 7 * 24 * time.Hour
	w, cfg, store := goldenDataset(t)
	want := foldProviders(t, store, w.Index)

	for _, workers := range []int{1, 2, 3} {
		rep, _, err := core.ScanStoreSnap(context.Background(), store, w.Index, cfg.Start, week, workers, nil,
			core.SnapshotOptions{Passes: core.PassProvider})
		if err != nil {
			t.Fatal(err)
		}
		checkProviders(t, fmt.Sprintf("workers=%d", workers), rep.Provider, want)
	}

	sf, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	pass := core.NewNearestPass(w.Index, cfg.Start, week)
	var blocks []*colf.Block
	for _, bi := range sf.Blocks() {
		blk, err := colf.NewBlockDecoder().DecodeCols(sf, bi, pass.Columns())
		if err != nil {
			t.Fatal(err)
		}
		if err := pass.ObserveBlock(blk); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
	}
	largest, delivered := 0, 0
	for _, f := range want {
		largest, delivered = max(largest, f.d.N()), delivered+f.d.N()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := pass.Providers()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	checkProviders(t, "one pass", rep, want)
	// The constant: the region-to-provider table, the report's rows and
	// the allocator's page rounding of the buffer.
	const slack = 16 << 10
	got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*largest+slack)
	t.Logf("the report over %d delivered rows (largest provider %d) allocated %d B; bound %d B", delivered, largest, got, bound)
	if got > bound {
		t.Errorf("the report over %d delivered rows (largest provider %d) allocated %d B, over %d B", delivered, largest, got, bound)
	}

	// A NaN in one delivered row of a known probe fails the report.
	blk := blocks[0]
	for i := range blk.Probe {
		if !blk.Lost[i] && w.Index.Known(blk.Probe[i]) {
			blk.RTT[i] = math.NaN()
			break
		}
	}
	bad := core.NewNearestPass(w.Index, cfg.Start, week)
	err = bad.ObserveBlock(blk)
	if err == nil {
		_, err = bad.Providers()
	}
	if err == nil || !strings.Contains(err.Error(), "stats: invalid sample") {
		t.Errorf("a NaN RTT: report error %v, want stats: invalid sample", err)
	}
}

// TestProviderTableCountsLosses holds the §4.1 table's loss accounting
// to the row fold on a hand-made dataset: a region whose every row is
// lost still counts against its provider, a provider with only lost rows
// gets no row, and rows of unknown probes and of regions not named
// "provider/…" count nowhere. A dataset with no samples is an error.
func TestProviderTableCountsLosses(t *testing.T) {
	const week = 7 * 24 * time.Hour
	w, cfg, _ := goldenDataset(t)
	var known []int
	privileged := 0
	for _, p := range w.Probes.All() {
		if w.Index.Known(p.ID) {
			known = append(known, p.ID)
		} else {
			privileged = p.ID
		}
	}
	if len(known) < 2 || privileged == 0 {
		t.Fatalf("%d known probes and privileged probe %d; the test needs two and one", len(known), privileged)
	}
	a, b, unknown := known[0], known[1], w.Probes.Len()+1000
	type row struct {
		probe  int
		region string
		rtt    float64 // 0: lost
	}
	rows := []row{
		{a, "Amazon/us-east-1", 12}, {a, "Amazon/eu-west-1", 0}, {b, "Amazon/us-east-1", 10},
		{a, "Amazon/eu-west-1", 0}, {b, "Google/europe-west3", 30}, {b, "Google/europe-west3", 0},
		{a, "Vultr/ams", 0}, {b, "Vultr/ams", 0}, // only lost rows: no Vultr row
		{a, "Amazon/us-east-1", 11}, {b, "Amazon/eu-west-1", 0}, // eu-west-1: every row lost
		{unknown, "Amazon/us-east-1", 5}, {unknown, "Amazon/us-east-1", 0}, {unknown, "Linode/tokyo", 7},
		{privileged, "Amazon/us-east-1", 6}, {privileged, "Google/europe-west3", 0}, {privileged, "Linode/tokyo", 8},
		{a, "loopback", 3}, {b, "loopback", 0}, // no provider prefix
	}
	var mem results.Memory
	for i, r := range rows {
		s := results.Sample{ProbeID: r.probe, Region: r.region, Time: cfg.Start.Add(time.Duration(i) * time.Minute), RTTms: r.rtt, Lost: r.rtt == 0}
		if err := mem.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := core.ScanMemory(&mem, w.Index, cfg.Start, week, core.PassProvider)
	if err != nil {
		t.Fatal(err)
	}
	checkProviders(t, "hand-made", rep.Provider, foldProviders(t, &mem, w.Index))
	// The fold's answer, spelled out.
	if len(rep.Provider.Rows) != 2 {
		t.Fatalf("%d provider rows, want Amazon and Google: %+v", len(rep.Provider.Rows), rep.Provider.Rows)
	}
	amazon, google := rep.Provider.Rows[0], rep.Provider.Rows[1]
	if amazon.Provider != "Amazon" || amazon.Summary.N != 3 || amazon.Summary.Median != 11 || amazon.Lost != 3 || amazon.LossRate != 0.5 {
		t.Errorf("Amazon: %+v, want 3 delivered (median 11) and 3 lost", amazon)
	}
	if google.Provider != "Google" || google.Summary.N != 1 || google.Lost != 1 || google.LossRate != 0.5 {
		t.Errorf("Google: %+v, want 1 delivered and 1 lost", google)
	}

	var empty results.Memory
	if _, err := core.ScanMemory(&empty, w.Index, cfg.Start, week, core.PassProvider); err == nil {
		t.Error("an empty dataset gave a provider table")
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
