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
	for _, dir := range []string{fileDir, goldenDir} {
		if dir != "" {
			os.RemoveAll(dir)
		}
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
// figure lines and CSVs to one analysis per scan — each pass alone, a
// sequential row fold over Store.ForEach — and its non-rendered reports
// are deeply equal.
func TestScanStoreMatchesLegacy(t *testing.T) {
	store, w, cfg := fileDataset(t)
	const week = 7 * 24 * time.Hour

	// alone walks the store once for one pass.
	alone := func(p core.RowPass) {
		t.Helper()
		if err := core.RunPasses(store, p); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	proximity := core.NewProximityPass(w.Index)
	alone(proximity)
	rep4, err := proximity.Report()
	must(err)
	minRTT := core.NewMinRTTPass(w.Index)
	alone(minRTT)
	rep5, err := minRTT.Report()
	must(err)
	// Figures 6 and 7 each get a nearest-region pass of their own, as the
	// per-figure functions did.
	nearest6, nearest7 := core.NewNearestPass(w.Index, cfg.Start, week), core.NewNearestPass(w.Index, cfg.Start, week)
	alone(nearest6)
	rep6, err := nearest6.FullDist()
	must(err)
	alone(nearest7)
	rep7, err := nearest7.LastMile()
	must(err)
	provider, err := nearest6.Providers()
	must(err)

	lines4 := figures.Figure4Lines(rep4)
	lines5, err := figures.CDFLines(rep5)
	must(err)
	lines6, err := figures.CDFLines(rep6)
	must(err)
	lines7, err := figures.Figure7Lines(rep7)
	must(err)
	legacyCSV := map[string][]byte{}
	{
		var buf bytes.Buffer
		must(figures.Figure4CSV(&buf, rep4))
		legacyCSV["4"] = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		must(figures.CDFCSV(&buf, rep5))
		legacyCSV["5"] = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		must(figures.CDFCSV(&buf, rep6))
		legacyCSV["6"] = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		must(figures.Figure7CSV(&buf, rep7))
		legacyCSV["7"] = append([]byte(nil), buf.Bytes()...)
	}

	for _, workers := range []int{1, 2, 4, 7} {
		rep, st, err := core.ScanStore(context.Background(), store, w.Index, cfg.Start, week, workers, nil)
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
	return buf.Bytes()
}

// nearestFigures renders what rep holds of Figures 6, 7 and 8, lines
// and CSVs, as renderSuite does.
func nearestFigures(tb testing.TB, rep *core.SuiteReport) []byte {
	tb.Helper()
	var buf bytes.Buffer
	check := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	write := func(lines []string, err error) {
		tb.Helper()
		check(err)
		buf.WriteString(strings.Join(lines, "\n"))
		buf.WriteString("\n--\n")
	}
	if rep.FullDist != nil {
		write(figures.CDFLines(rep.FullDist))
		check(figures.CDFCSV(&buf, rep.FullDist))
	}
	if rep.LastMile != nil {
		write(figures.Figure7Lines(rep.LastMile))
		check(figures.Figure7CSV(&buf, rep.LastMile))
		rep8, lines, err := figures.Figure8(rep.LastMile, apps.Paper())
		write(lines, err)
		check(figures.Figure8CSV(&buf, rep8))
	}
	return buf.Bytes()
}

// significance is the on-demand KS result of a suite's nearest-region
// pass, as text.
func significance(tb testing.TB, s *core.Suite) string {
	tb.Helper()
	ks, err := s.Nearest.Significance()
	if err != nil {
		tb.Fatal(err)
	}
	return fmt.Sprintf("%+v", ks)
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
	return len(flippedProbes(idx, smps, cut))
}

// flippedProbes is the set nearestFlips counts.
func flippedProbes(idx *core.Index, smps []results.Sample, cut int) map[int]bool {
	before, after := nearestRegions(idx, smps[:cut]), nearestRegions(idx, smps)
	flipped := map[int]bool{}
	for id, region := range before {
		if after[id] != region {
			flipped[id] = true
		}
	}
	return flipped
}

// matching is src restricted to the rows pred admits.
type matching struct {
	src  core.Source
	pred *colf.Predicate
}

func (m matching) ForEach(fn func(results.Sample) error) error {
	return m.src.ForEach(func(s results.Sample) error {
		if !m.pred.MatchRow(s.Time.UnixNano()) {
			return nil
		}
		return fn(s)
	})
}

// TestScanStoreMatchesRowOracle is the scanner's acceptance check. The
// oracle is the sequential row fold (oracle_test.go): the suite's passes
// observing Store.ForEach — every block decoded in full, row by row —
// filtered by MatchRow. For every worker count and for windows that
// leave blocks whole or cut them mid-block, the block scan must leave the suite in the same state byte for byte
// (Suite.StateDump) and render the same figure lines and CSVs. With
// no predicate the same holds through a prefix fold merged with a scan
// of the remaining blocks, as a resident suite advances — and, for the
// two snapshot passes, through that prefix's encoded and decoded state,
// as a Figure 4/5 resume does — and through core.ScanStore and
// core.ScanStoreSnap, whose samples.snap must not depend on the worker
// count either — and through the in-memory entry point, which folds the
// same samples as results.Memory's colf image (memoryLeg).
func TestScanStoreMatchesRowOracle(t *testing.T) {
	store, w, cfg := fileDataset(t)
	ctx := context.Background()
	const week = 7 * 24 * time.Hour
	img, closeImg, err := colf.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer closeImg.Close()

	preds := map[string]*colf.Predicate{
		"none":   nil,
		"window": {Since: cfg.Start.Add(5*24*time.Hour + 97*time.Minute), Until: cfg.Start.Add(19*24*time.Hour + 11*time.Minute)},
	}
	for name, pred := range preds {
		oracle, err := core.RowOracle(matching{store, pred}, w.Index, cfg.Start, week)
		if err != nil {
			t.Fatal(err)
		}
		wantState, err := oracle.StateDump()
		if err != nil {
			t.Fatal(err)
		}
		wantSnapState, err := oracle.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := oracle.Finalize()
		if err != nil {
			t.Fatalf("%s: oracle report: %v", name, err)
		}
		wantRender := renderSuite(t, rep)
		wantNearest := nearestFigures(t, rep)
		wantKS := significance(t, oracle)

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
			gotState, err := suites[0].StateDump()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState, wantState) {
				t.Errorf("%s workers=%d: suite state differs from the row oracle's", name, workers)
			}
			rep, err := suites[0].Finalize()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !bytes.Equal(renderSuite(t, rep), wantRender) {
				t.Errorf("%s workers=%d: rendered figures differ from the row oracle's", name, workers)
			}
			if got := significance(t, suites[0]); got != wantKS {
				t.Errorf("%s workers=%d: KS result %s, the row oracle's %s", name, workers, got, wantKS)
			}

			// A one-shot fold of Figures 6–8 reads the blocks twice and
			// buffers only the rows its reports keep: the same figures
			// and KS result.
			once, err := core.FoldImage(img, img.Blocks(), w.Index, cfg.Start, week, workers, pred, core.PassFullDist|core.PassLastMile, true)
			if err != nil {
				t.Fatalf("%s workers=%d: one-shot fold: %v", name, workers, err)
			}
			onceRep, err := once.Finalize()
			if err != nil {
				t.Fatalf("%s workers=%d: one-shot fold: %v", name, workers, err)
			}
			if !bytes.Equal(nearestFigures(t, onceRep), wantNearest) {
				t.Errorf("%s workers=%d: one-shot Figures 6–8 differ from the row oracle's", name, workers)
			}
			if got := significance(t, once); got != wantKS {
				t.Errorf("%s workers=%d: one-shot KS result %s, the row oracle's %s", name, workers, got, wantKS)
			}
		}
		if pred != nil {
			continue
		}

		// The same end state must be reached by advancing: the row oracle
		// over the first two thirds of the blocks, merged with a block scan
		// of the rest — a delta that moves some probes' nearest region, so
		// the rows Figures 6-8 keep for them change after the merge. The
		// whole prefix suite is what a resident suite holds; its snapshot
		// passes, serialized and decoded, are what a Figure 4/5 resume
		// starts from.
		r, closer, err := colf.Open(store.SamplesPath())
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		blocks := r.Blocks()
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
		scanRest := func(workers int, sel core.PassSet) *core.Suite {
			t.Helper()
			var suites []*core.Suite
			if _, err := scan.Blocks(ctx, scan.Config{
				Workers: workers,
				NewPasses: func(int) ([]scan.Pass, error) {
					s, err := core.NewSuite(w.Index, cfg.Start, week)
					if err != nil {
						return nil, err
					}
					suites = append(suites, s.Select(sel))
					return s.Passes(), nil
				},
			}, r, 0, blocks[covered:], covered, blocks[covered].Off); err != nil {
				t.Fatalf("resumed workers=%d: %v", workers, err)
			}
			return suites[0]
		}
		for _, workers := range []int{1, 2, 4, 7} {
			prefix, err := core.RowOracle(&head, w.Index, cfg.Start, week)
			if err != nil {
				t.Fatal(err)
			}
			prefixState, err := prefix.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if err := prefix.Merge(scanRest(workers, 0)); err != nil {
				t.Fatal(err)
			}
			gotState, err := prefix.StateDump()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState, wantState) {
				t.Errorf("advanced workers=%d: suite state differs from the row oracle's", workers)
			}
			rep, err := prefix.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderSuite(t, rep), wantRender) {
				t.Errorf("advanced workers=%d: rendered figures differ from the row oracle's", workers)
			}
			if got := significance(t, prefix); got != wantKS {
				t.Errorf("advanced workers=%d: KS result %s, the row oracle's %s", workers, got, wantKS)
			}

			seeded, err := core.NewSuiteFromState(w.Index, cfg.Start, week, prefixState)
			if err != nil {
				t.Fatal(err)
			}
			if err := seeded.Merge(scanRest(workers, core.PassProximity|core.PassMinRTT)); err != nil {
				t.Fatal(err)
			}
			gotSnapState, err := seeded.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotSnapState, wantSnapState) {
				t.Errorf("resumed workers=%d: snapshot state differs from the row oracle's", workers)
			}
			resumed, err := seeded.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if resumed.FullDist != nil || resumed.LastMile != nil || resumed.Provider != nil {
				t.Errorf("resumed workers=%d: a suite decoded from snapshot state reports passes it does not hold", workers)
			}
			if got, want := figureCSVs(t, resumed), figureCSVs(t, rep); got["4"] != want["4"] || got["5"] != want["5"] {
				t.Errorf("resumed workers=%d: Figures 4/5 differ from the row oracle's", workers)
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
		memoryLeg(t, all, w.Index, cfg.Start, wantState, wantRender, wantKS)
	}
}

// figureCSVs renders the reports rep holds — a pass-selective scan
// leaves the others nil — to each figure's CSV bytes, plus the
// non-rendered provider report.
func figureCSVs(tb testing.TB, rep *core.SuiteReport) map[string]string {
	tb.Helper()
	out := map[string]string{}
	var buf bytes.Buffer
	emit := func(name string, err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = buf.String()
		buf.Reset()
	}
	if rep.Proximity != nil {
		emit("4", figures.Figure4CSV(&buf, rep.Proximity))
	}
	if rep.MinRTT != nil {
		emit("5", figures.CDFCSV(&buf, rep.MinRTT))
	}
	if rep.FullDist != nil {
		emit("6", figures.CDFCSV(&buf, rep.FullDist))
	}
	if rep.LastMile != nil {
		emit("7", figures.Figure7CSV(&buf, rep.LastMile))
		rep8, _, err := figures.Figure8(rep.LastMile, apps.Paper())
		if err != nil {
			tb.Fatal(err)
		}
		emit("8", figures.Figure8CSV(&buf, rep8))
	}
	if rep.Provider != nil {
		out["provider"] = fmt.Sprintf("%+v", *rep.Provider)
	}
	return out
}

// memoryLeg holds the in-memory entry point to the row oracle over the
// same samples: results.Memory holds them as a colf image — the last
// block short — and folding its decoded blocks leaves the oracle's suite
// state (StateDump) byte for byte; core.ScanMemory renders the oracle's
// figures; a pass-selective call reports exactly the selected passes,
// each equal to the full run's; an empty Memory fails the way the
// per-figure functions did; and a timestamp the binary format cannot
// hold is refused at Add, not wrapped.
func memoryLeg(t *testing.T, all []results.Sample, idx *core.Index, start time.Time, wantState, wantRender []byte, wantKS string) {
	t.Helper()
	const week = 7 * 24 * time.Hour
	if len(all)%colf.DefaultBlockRows == 0 {
		t.Fatalf("%d samples fill whole blocks; the test needs a short last block", len(all))
	}
	var mem results.Memory
	for _, s := range all {
		if err := mem.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	suite, err := core.NewSuite(idx, start, week)
	if err != nil {
		t.Fatal(err)
	}
	img, infos, err := mem.Image()
	if err != nil {
		t.Fatal(err)
	}
	rows, blocks := 0, 0
	dec := colf.NewBlockDecoder()
	for _, bi := range infos {
		blk, err := dec.Decode(img, bi)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Rows() > colf.DefaultBlockRows {
			t.Errorf("block %d holds %d rows", blocks, blk.Rows())
		}
		rows += blk.Rows()
		blocks++
		for _, p := range suite.Passes() {
			if err := p.ObserveBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := (len(all) + colf.DefaultBlockRows - 1) / colf.DefaultBlockRows; rows != len(all) || blocks != want {
		t.Errorf("memory image holds %d rows in %d blocks, want %d in %d", rows, blocks, len(all), want)
	}
	gotState, err := suite.StateDump()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, wantState) {
		t.Error("memory blocks: suite state differs from the row oracle's")
	}
	if got := significance(t, suite); got != wantKS {
		t.Errorf("memory blocks: KS result %s, the row oracle's %s", got, wantKS)
	}

	full, err := core.ScanMemory(&mem, idx, start, week, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Samples != uint64(len(all)) || full.Passes != 0 {
		t.Errorf("ScanMemory reports %d samples over passes %v, want %d over all", full.Samples, full.Passes, len(all))
	}
	if !bytes.Equal(renderSuite(t, full), wantRender) {
		t.Error("ScanMemory figures differ from the row oracle's")
	}
	fullCSVs := figureCSVs(t, full)
	for sel, reports := range map[core.PassSet][]string{
		core.PassProximity:                    {"4"},
		core.PassMinRTT:                       {"5"},
		core.PassFullDist:                     {"6"},
		core.PassLastMile:                     {"7", "8"},
		core.PassProvider:                     {"provider"},
		core.PassLastMile | core.PassMinRTT:   {"5", "7", "8"},
		core.PassFullDist | core.PassLastMile: {"6", "7", "8"},
	} {
		rep, err := core.ScanMemory(&mem, idx, start, week, sel)
		if err != nil {
			t.Fatalf("passes %v: %v", sel, err)
		}
		if rep.Passes != sel {
			t.Errorf("passes %v: report says it worked %v", sel, rep.Passes)
		}
		got := figureCSVs(t, rep)
		if len(got) != len(reports) {
			t.Errorf("passes %v: %d reports came back, want exactly %v", sel, len(got), reports)
		}
		for _, name := range reports {
			if got[name] == "" || got[name] != fullCSVs[name] {
				t.Errorf("passes %v: report %s differs from the full run's", sel, name)
			}
		}
	}

	var empty results.Memory
	if _, err := core.ScanMemory(&empty, idx, start, week, core.PassMinRTT); err == nil || err.Error() != "analysis: no delivered samples" {
		t.Errorf("empty memory: err = %v", err)
	}

	var far results.Memory
	beyond := all[0]
	beyond.Time = time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := far.Add(beyond); err == nil || !strings.Contains(err.Error(), "nanosecond range") {
		t.Errorf("timestamp outside the binary range: err = %v", err)
	}
}

// TestRunSuiteMatchesScanStore pins the sequential fused row fold — all
// four oracle passes in one walk of the store — to the parallel one.
func TestRunSuiteMatchesScanStore(t *testing.T) {
	store, w, cfg := fileDataset(t)
	oracle, err := core.RowOracle(store, w.Index, cfg.Start, 7*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := oracle.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := core.ScanStore(context.Background(), store, w.Index, cfg.Start, 7*24*time.Hour, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Provider, par.Provider) {
		t.Error("the fused row oracle and ScanStore disagree")
	}
}

// TestNearestFiguresAtAnyWorkerCount pins Figures 6, 7 and 8 as
// `figures -fig 6|7|8` computes them — a cold one-shot scan over the
// nearest-region pass, which reads the store twice and buffers only the
// rows its reports keep — byte for byte, lines and CSVs, at one, two and
// three scan workers, to what the all-rows buffer of a scan over all
// five passes renders. So the chunks a merge takes over reach every
// report in file order, and the second read keeps the rows the reports'
// filter would. Its stats and sample count describe the store once.
func TestNearestFiguresAtAnyWorkerCount(t *testing.T) {
	store, w, cfg := fileDataset(t)
	ctx := context.Background()
	const week = 7 * 24 * time.Hour
	all, allStats, err := core.ScanStore(ctx, store, w.Index, cfg.Start, week, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []core.PassSet{core.PassFullDist, core.PassLastMile, core.PassFullDist | core.PassLastMile | core.PassMinRTT} {
		ref := &core.SuiteReport{}
		if sel&core.PassFullDist != 0 {
			ref.FullDist = all.FullDist
		}
		if sel&core.PassLastMile != 0 {
			ref.LastMile = all.LastMile
		}
		want := nearestFigures(t, ref)
		for _, workers := range []int{1, 2, 3} {
			rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, week, workers, nil, core.SnapshotOptions{Passes: sel})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", sel, workers, err)
			}
			if st.Workers != workers {
				t.Errorf("%v workers=%d: scan used %d workers", sel, workers, st.Workers)
			}
			if st.Samples != allStats.Samples || st.BlocksRead != allStats.BlocksRead || rep.Samples != all.Samples {
				t.Errorf("%v workers=%d: %d samples over %d blocks read (report: %d), want the store once: %d over %d",
					sel, workers, st.Samples, st.BlocksRead, rep.Samples, allStats.Samples, allStats.BlocksRead)
			}
			if !bytes.Equal(nearestFigures(t, rep), want) {
				t.Errorf("%v workers=%d: figures differ from the all-rows buffer's", sel, workers)
			}
			if sel&core.PassMinRTT != 0 && !reflect.DeepEqual(figureCSVs(t, &core.SuiteReport{MinRTT: rep.MinRTT}), figureCSVs(t, &core.SuiteReport{MinRTT: all.MinRTT})) {
				t.Errorf("%v workers=%d: Figure 5 differs from the all-pass scan's", sel, workers)
			}
		}
	}
}

// TestOneShotFoldRetention bounds what a one-shot Figure 6–8 fold
// holds: its nearest-region pass buffers exactly the rows the reports
// keep — as many as Figure 6 counts over all continents — in chunks
// allocated at their kept count, at one, two and three scan workers.
// The all-rows buffer of a fold that can be advanced holds far more.
func TestOneShotFoldRetention(t *testing.T) {
	store, w, cfg := fileDataset(t)
	const week = 7 * 24 * time.Hour
	img, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	sel := core.PassFullDist | core.PassLastMile
	for _, workers := range []int{1, 2, 3} {
		s, err := core.FoldImage(img, img.Blocks(), w.Index, cfg.Start, week, workers, nil, sel, true)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, ct := range rep.FullDist.Continents() {
			kept += rep.FullDist.N(ct)
		}
		rows, oversized := s.BufferedRows()
		if rows != kept || kept == 0 {
			t.Errorf("workers=%d: the fold buffers %d rows, Figure 6 keeps %d", workers, rows, kept)
		}
		if oversized != 0 {
			t.Errorf("workers=%d: %d chunks allocated past their kept rows", workers, oversized)
		}
		all, err := core.FoldImage(img, img.Blocks(), w.Index, cfg.Start, week, workers, nil, sel, false)
		if err != nil {
			t.Fatal(err)
		}
		if allRows, _ := all.BufferedRows(); allRows < 4*kept {
			t.Errorf("workers=%d: the all-rows buffer holds %d rows, under 4 × the %d kept", workers, allRows, kept)
		}
	}
}
