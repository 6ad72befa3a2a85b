package core_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/world"
)

// The equivalence test and the benchmarks share one file-backed campaign
// dataset, built on first use and removed by TestMain.
var (
	fileOnce  sync.Once
	fileDir   string
	fileErr   error
	fileWorld *world.World
	fileCfg   atlas.CampaignConfig
)

func TestMain(m *testing.M) {
	code := m.Run()
	if fileDir != "" {
		os.RemoveAll(fileDir)
	}
	os.Exit(code)
}

// fileDataset returns a stored month-long test campaign (~400 probes,
// ~190k samples in two dozen blocks).
func fileDataset(tb testing.TB) (*results.Store, *world.World, atlas.CampaignConfig) {
	tb.Helper()
	fileOnce.Do(func() {
		fileDir, fileErr = os.MkdirTemp("", "core-suite-*")
		if fileErr != nil {
			return
		}
		fileWorld, fileErr = world.Build(world.Config{Seed: 7, Probes: 400})
		if fileErr != nil {
			return
		}
		fileCfg = atlas.TestCampaign()
		meta := fileCfg.Meta(7, fileWorld.Probes.Len(), fileWorld.Catalog.Len())
		var sink *results.Sink
		_, sink, fileErr = results.Create(filepath.Join(fileDir, "ds"), meta, results.FormatBinary)
		if fileErr != nil {
			return
		}
		if _, fileErr = fileWorld.Platform.RunCampaign(context.Background(), fileCfg, sink.Write); fileErr != nil {
			sink.Close()
			return
		}
		fileErr = sink.Close()
	})
	if fileErr != nil {
		tb.Fatal(fileErr)
	}
	store, err := results.Open(filepath.Join(fileDir, "ds"))
	if err != nil {
		tb.Fatal(err)
	}
	return store, fileWorld, fileCfg
}

// TestScanStoreMatchesLegacy is the fused pipeline's acceptance check: for
// any worker count, the parallel single-scan suite renders byte-identical
// figure lines and CSVs to the one-analysis-per-scan functions — each a
// sequential row fold over Store.ForEach — and its non-rendered reports
// are deeply equal.
func TestScanStoreMatchesLegacy(t *testing.T) {
	store, w, cfg := fileDataset(t)

	_, lines4, err := figures.Figure4(store, w.Index)
	if err != nil {
		t.Fatal(err)
	}
	_, lines5, err := figures.Figure5(store, w.Index)
	if err != nil {
		t.Fatal(err)
	}
	_, lines6, err := figures.Figure6(store, w.Index)
	if err != nil {
		t.Fatal(err)
	}
	rep7, lines7, err := figures.Figure7(store, w.Index, cfg.Start)
	if err != nil {
		t.Fatal(err)
	}
	provider, err := core.ProviderComparison(store, w.Index)
	if err != nil {
		t.Fatal(err)
	}
	diurnal, err := core.Diurnal(store, w.Index)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := core.LastMileSignificance(store, w.Index)
	if err != nil {
		t.Fatal(err)
	}
	legacyCSV := map[string][]byte{}
	{
		rep4, _, err := figures.Figure4(store, w.Index)
		if err != nil {
			t.Fatal(err)
		}
		rep5, _, err := figures.Figure5(store, w.Index)
		if err != nil {
			t.Fatal(err)
		}
		rep6, _, err := figures.Figure6(store, w.Index)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := figures.Figure4CSV(&buf, rep4); err != nil {
			t.Fatal(err)
		}
		legacyCSV["4"] = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		if err := figures.CDFCSV(&buf, rep5); err != nil {
			t.Fatal(err)
		}
		legacyCSV["5"] = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		if err := figures.CDFCSV(&buf, rep6); err != nil {
			t.Fatal(err)
		}
		legacyCSV["6"] = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		if err := figures.Figure7CSV(&buf, rep7); err != nil {
			t.Fatal(err)
		}
		legacyCSV["7"] = append([]byte(nil), buf.Bytes()...)
	}

	for _, workers := range []int{1, 2, 4, 7} {
		rep, st, err := core.ScanStore(context.Background(), store, w.Index, cfg.Start, 7*24*time.Hour, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Workers != workers {
			t.Errorf("workers=%d: scan used %d workers", workers, st.Workers)
		}
		check := func(name string, legacy, fused []string) {
			if strings.Join(legacy, "\n") != strings.Join(fused, "\n") {
				t.Errorf("workers=%d: figure %s lines differ from legacy", workers, name)
			}
		}
		check("4", lines4, figures.Figure4Lines(rep.Proximity))
		f5, err := figures.CDFLines(rep.MinRTT)
		if err != nil {
			t.Fatal(err)
		}
		check("5", lines5, f5)
		f6, err := figures.CDFLines(rep.FullDist)
		if err != nil {
			t.Fatal(err)
		}
		check("6", lines6, f6)
		f7, err := figures.Figure7Lines(rep.LastMile)
		if err != nil {
			t.Fatal(err)
		}
		check("7", lines7, f7)

		var buf bytes.Buffer
		if err := figures.Figure4CSV(&buf, rep.Proximity); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), legacyCSV["4"]) {
			t.Errorf("workers=%d: figure 4 CSV differs from legacy", workers)
		}
		buf.Reset()
		if err := figures.CDFCSV(&buf, rep.MinRTT); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), legacyCSV["5"]) {
			t.Errorf("workers=%d: figure 5 CSV differs from legacy", workers)
		}
		buf.Reset()
		if err := figures.CDFCSV(&buf, rep.FullDist); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), legacyCSV["6"]) {
			t.Errorf("workers=%d: figure 6 CSV differs from legacy", workers)
		}
		buf.Reset()
		if err := figures.Figure7CSV(&buf, rep.LastMile); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), legacyCSV["7"]) {
			t.Errorf("workers=%d: figure 7 CSV differs from legacy", workers)
		}

		if !reflect.DeepEqual(rep.Provider, provider) {
			t.Errorf("workers=%d: provider report differs from legacy", workers)
		}
		if !reflect.DeepEqual(rep.Diurnal, diurnal) {
			t.Errorf("workers=%d: diurnal report differs from legacy", workers)
		}
		if rep.Significance != ks {
			t.Errorf("workers=%d: KS result differs: %+v vs %+v", workers, rep.Significance, ks)
		}
	}
}

// renderSuite renders a fused scan report to its user-visible bytes:
// every figure's lines and CSVs, concatenated deterministically.
func renderSuite(tb testing.TB, rep *core.SuiteReport) []byte {
	tb.Helper()
	var buf bytes.Buffer
	write := func(lines []string, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		buf.WriteString(strings.Join(lines, "\n"))
		buf.WriteString("\n--\n")
	}
	write(figures.Figure4Lines(rep.Proximity), nil)
	write(figures.CDFLines(rep.MinRTT))
	write(figures.CDFLines(rep.FullDist))
	write(figures.Figure7Lines(rep.LastMile))
	if err := figures.Figure4CSV(&buf, rep.Proximity); err != nil {
		tb.Fatal(err)
	}
	if err := figures.CDFCSV(&buf, rep.MinRTT); err != nil {
		tb.Fatal(err)
	}
	if err := figures.CDFCSV(&buf, rep.FullDist); err != nil {
		tb.Fatal(err)
	}
	if err := figures.Figure7CSV(&buf, rep.LastMile); err != nil {
		tb.Fatal(err)
	}
	rep8, _, err := figures.Figure8(rep.LastMile, apps.Paper())
	if err != nil {
		tb.Fatal(err)
	}
	if err := figures.Figure8CSV(&buf, rep8); err != nil {
		tb.Fatal(err)
	}
	fmt.Fprintf(&buf, "ks %+v\n", rep.Significance)
	return buf.Bytes()
}

// nearestRegions folds smps the way the analyses define a probe's
// nearest region: the region of its lowest delivered RTT, the earliest
// sample winning a tie.
func nearestRegions(idx *core.Index, smps []results.Sample) map[int]string {
	type best struct {
		region string
		rtt    float64
	}
	bests := map[int]best{}
	for _, s := range smps {
		if s.Lost || !idx.Known(s.ProbeID) {
			continue
		}
		if b, ok := bests[s.ProbeID]; !ok || s.RTTms < b.rtt {
			bests[s.ProbeID] = best{s.Region, s.RTTms}
		}
	}
	out := make(map[int]string, len(bests))
	for id, b := range bests {
		out[id] = b.region
	}
	return out
}

// nearestFlips counts the probes whose nearest region over all of smps
// differs from the one over smps[:cut] — the probes for which an append
// of smps[cut:] changes which rows Figures 6-8 keep.
func nearestFlips(idx *core.Index, smps []results.Sample, cut int) int {
	before, after := nearestRegions(idx, smps[:cut]), nearestRegions(idx, smps)
	flips := 0
	for id, region := range before {
		if after[id] != region {
			flips++
		}
	}
	return flips
}

// matching is src restricted to the rows pred admits.
type matching struct {
	src  results.Source
	pred *colf.Predicate
}

func (m matching) ForEach(fn func(results.Sample) error) error {
	return m.src.ForEach(func(s results.Sample) error {
		if !m.pred.MatchRow(s.ProbeID, s.Time.UnixNano(), s.Region) {
			return nil
		}
		return fn(s)
	})
}

// TestScanStoreMatchesRowOracle is the scanner's acceptance check. The
// oracle is the sequential row fold: core.RunSuite's passes observing
// Store.ForEach — every block decoded in full, row by row — filtered
// by MatchRow. For every worker count and for predicates that leave blocks whole, cut
// them mid-block, select a probe range and select a region prefix, the
// block scan must leave the suite in the same state byte for byte
// (Suite.EncodeState) and render the same figure lines and CSVs. With
// no predicate the same holds through a decoded prefix state merged
// with a scan of the remaining blocks, and through core.ScanStore and
// core.ScanStoreSnap, whose samples.snap must not depend on the worker
// count either.
func TestScanStoreMatchesRowOracle(t *testing.T) {
	store, w, cfg := fileDataset(t)
	ctx := context.Background()
	const week = 7 * 24 * time.Hour

	preds := map[string]*colf.Predicate{
		"none":   nil,
		"window": {Since: cfg.Start.Add(5*24*time.Hour + 97*time.Minute), Until: cfg.Start.Add(19*24*time.Hour + 11*time.Minute)},
		"probes": {MinProbe: 60, MaxProbe: 310},
		"region": {RegionPrefix: "Amazon/"},
	}
	for name, pred := range preds {
		oracle, err := core.NewSuite(w.Index, cfg.Start, week)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.RunPasses(matching{store, pred}, oracle.Proximity, oracle.MinRTT, oracle.Nearest, oracle.Diurnal, oracle.Provider); err != nil {
			t.Fatal(err)
		}
		wantState, err := oracle.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := oracle.Report()
		if err != nil {
			t.Fatalf("%s: oracle report: %v", name, err)
		}
		wantRender := renderSuite(t, rep)

		for _, workers := range []int{1, 2, 4, 7} {
			var suites []*core.Suite
			st, err := scan.File(ctx, scan.Config{
				Path:      store.SamplesPath(),
				Workers:   workers,
				Predicate: pred,
				NewPasses: func(int) ([]scan.Pass, error) {
					s, err := core.NewSuite(w.Index, cfg.Start, week)
					suites = append(suites, s)
					return s.Passes(), err
				},
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if name == "window" && (st.BlocksSkipped == 0 || st.RowsScanned == st.Samples) {
				t.Fatalf("window cuts no block mid-block: %+v", st)
			}
			gotState, err := suites[0].EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState, wantState) {
				t.Errorf("%s workers=%d: suite state differs from the row oracle's", name, workers)
			}
			rep, err := suites[0].Report()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !bytes.Equal(renderSuite(t, rep), wantRender) {
				t.Errorf("%s workers=%d: rendered figures differ from the row oracle's", name, workers)
			}
		}
		if pred != nil {
			continue
		}

		// The same end state must be reached through a resume: the row
		// oracle's state over the first two thirds of the blocks,
		// serialized and decoded, then merged with a block scan of the
		// rest — a delta that moves some probes' nearest region, so the
		// rows Figures 6-8 keep for them change after the decode.
		r, closer, err := colf.Open(store.SamplesPath())
		if err != nil {
			t.Fatal(err)
		}
		blocks := append([]colf.BlockInfo(nil), r.Blocks()...)
		closer.Close()
		covered := len(blocks) * 2 / 3
		var all []results.Sample
		if err := store.ForEach(func(s results.Sample) error {
			all = append(all, s)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		cut := 0
		for _, b := range blocks[:covered] {
			cut += b.Zone.Rows
		}
		if flips := nearestFlips(w.Index, all, cut); flips == 0 {
			t.Fatal("no probe's nearest region moves in the resumed delta; the test needs one that does")
		}
		var head results.Memory
		for _, s := range all[:cut] {
			head.Add(s)
		}
		prefix, err := core.NewSuite(w.Index, cfg.Start, week)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.RunPasses(&head, prefix.Proximity, prefix.MinRTT, prefix.Nearest, prefix.Diurnal, prefix.Provider); err != nil {
			t.Fatal(err)
		}
		prefixState, err := prefix.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			seeded, err := core.NewSuiteFromState(w.Index, cfg.Start, week, prefixState)
			if err != nil {
				t.Fatal(err)
			}
			var suites []*core.Suite
			if _, err := scan.File(ctx, scan.Config{
				Path:    store.SamplesPath(),
				Workers: workers,
				Resume:  &scan.Resume{Bytes: blocks[covered].Off, Blocks: covered},
				NewPasses: func(int) ([]scan.Pass, error) {
					s, err := core.NewSuite(w.Index, cfg.Start, week)
					suites = append(suites, s)
					return s.Passes(), err
				},
			}); err != nil {
				t.Fatalf("resumed workers=%d: %v", workers, err)
			}
			if err := seeded.Merge(suites[0]); err != nil {
				t.Fatal(err)
			}
			gotState, err := seeded.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState, wantState) {
				t.Errorf("resumed workers=%d: suite state differs from the row oracle's", workers)
			}
			rep, err := seeded.Report()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderSuite(t, rep), wantRender) {
				t.Errorf("resumed workers=%d: rendered figures differ from the row oracle's", workers)
			}
		}

		var refSnap []byte
		for _, workers := range []int{1, 2, 4, 7} {
			rep, st, err := core.ScanStore(ctx, store, w.Index, cfg.Start, week, workers, nil)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if st.BlocksRead != st.BlocksTotal || st.BlocksSkipped != 0 || st.BlocksZone != 0 {
				t.Errorf("unfiltered scan read %d/%d blocks, skipped %d, zone-resolved %d",
					st.BlocksRead, st.BlocksTotal, st.BlocksSkipped, st.BlocksZone)
			}
			if !bytes.Equal(renderSuite(t, rep), wantRender) {
				t.Errorf("workers=%d: ScanStore figures differ from the row oracle's", workers)
			}
			snapPath := filepath.Join(t.TempDir(), "samples.snap")
			rep, _, err = core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, week, workers, nil, core.SnapshotOptions{Path: snapPath})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !bytes.Equal(renderSuite(t, rep), wantRender) {
				t.Errorf("workers=%d: ScanStoreSnap figures differ from the row oracle's", workers)
			}
			snapBytes, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			if refSnap == nil {
				refSnap = snapBytes
			} else if !bytes.Equal(snapBytes, refSnap) {
				t.Errorf("workers=%d: samples.snap differs from workers=1", workers)
			}
		}
	}
}

// TestRunSuiteMatchesScanStore pins the sequential fused path to the
// parallel one.
func TestRunSuiteMatchesScanStore(t *testing.T) {
	store, w, cfg := fileDataset(t)
	seq, err := core.RunSuite(store, w.Index, cfg.Start, 7*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := core.ScanStore(context.Background(), store, w.Index, cfg.Start, 7*24*time.Hour, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Provider, par.Provider) || !reflect.DeepEqual(seq.Diurnal, par.Diurnal) ||
		seq.Significance != par.Significance {
		t.Error("RunSuite and ScanStore disagree")
	}
}
