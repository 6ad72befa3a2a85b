package core_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/results"
	"repro/internal/scan"
)

// TestResidentReportMatchesColdEveryStep pins the delta update of the
// resident Figure 6/7 multisets. A store grows in 34 steps — the
// month-long campaign in 33 pieces, then a replay of its first piece —
// and after every step a HotSuite advances over the new blocks and
// reports, so each report runs the update, not a cold build. At every
// boundary the report must equal a cold ScanStoreSnap of the same store:
// Figures 4–8 lines and CSVs, Figure 6's N and quantiles per continent,
// Figure 7's points, and the on-demand KS result must equal a cold
// suite's. The campaign steps must move at least 100 probes' nearest
// region between them. Two pass-selective suites, one reporting only
// Figure 6 and one only Figure 7, advance beside it by merging each
// step's scan; they must match the cold figures and never build the
// other figure's sets. Every update must read no more buffered rows
// than the step appended plus every row of the probes whose nearest
// region it flipped: the rest of the buffer is never walked. The replay
// holds no RTT the store lacks, so it cannot move a nearest region, and
// the update must gather exactly its kept rows.
func TestResidentReportMatchesColdEveryStep(t *testing.T) {
	src, w, cfg := fileDataset(t)
	ctx := context.Background()
	const week = 7 * 24 * time.Hour
	var all []results.Sample
	if err := src.ForEach(func(s results.Sample) error {
		all = append(all, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	store, sink, err := results.Create(t.TempDir(), src.Meta(), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var written []results.Sample
	write := func(smps []results.Sample) {
		t.Helper()
		for _, s := range smps {
			if err := sink.Write(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		written = append(written, smps...)
	}
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const steps = 33
	piece := len(all) / (steps + 1)
	write(all[:piece])
	hot, err := core.NewHotSuite(store, w.Index, cfg.Start, week, core.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newSuite := func(sel core.PassSet) *core.Suite {
		t.Helper()
		s, err := core.NewSuite(w.Index, cfg.Start, week)
		if err != nil {
			t.Fatal(err)
		}
		return s.Select(sel)
	}
	selective := map[core.PassSet]*core.Suite{core.PassFullDist: newSuite(core.PassFullDist), core.PassLastMile: newSuite(core.PassLastMile)}
	// advance locates the blocks past the resident boundary and folds
	// them into the HotSuite and, scanned on their own, into each
	// selective suite.
	advance := func() {
		t.Helper()
		covered, prefixBlocks := hot.Covered()
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		blocks, end, err := colf.Locate(f, fi.Size(), covered)
		if err != nil || len(blocks) == 0 {
			t.Fatalf("located %d blocks past %d: %v", len(blocks), covered, err)
		}
		if _, err := hot.Advance(ctx, f, fi.Size(), blocks, end, scan.Config{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		for sel, resident := range selective {
			var parts []*core.Suite
			cfg := scan.Config{Workers: 2, NewPasses: func(int) ([]scan.Pass, error) {
				s := newSuite(sel)
				parts = append(parts, s)
				return s.Passes(), nil
			}}
			if _, err := scan.Blocks(ctx, cfg, f, fi.Size(), blocks, prefixBlocks, covered); err != nil {
				t.Fatal(err)
			}
			if err := resident.Merge(parts[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The selective suites fold the seed too; every suite takes its
	// first, cold, report before the steps.
	for sel, resident := range selective {
		var parts []*core.Suite
		if _, err := scan.File(ctx, scan.Config{Path: store.SamplesPath(), Workers: 2, NewPasses: func(int) ([]scan.Pass, error) {
			s := newSuite(sel)
			parts = append(parts, s)
			return s.Passes(), nil
		}}); err != nil {
			t.Fatal(err)
		}
		if err := resident.Merge(parts[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := resident.Report(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hot.Report(); err != nil {
		t.Fatal(err)
	}

	// coldSuite folds the whole store from scratch, for the KS result no
	// report carries.
	coldSuite := func() *core.Suite {
		t.Helper()
		var parts []*core.Suite
		if _, err := scan.File(ctx, scan.Config{Path: store.SamplesPath(), Workers: 2, NewPasses: func(int) ([]scan.Pass, error) {
			s := newSuite(0)
			parts = append(parts, s)
			return s.Passes(), nil
		}}); err != nil {
			t.Fatal(err)
		}
		return parts[0]
	}

	flips := 0
	for step := 0; step <= steps; step++ {
		replay := step == steps
		cut := len(written)
		switch {
		case replay:
			write(all[:piece])
		case step == steps-1:
			write(all[piece*(step+1):])
		default:
			write(all[piece*(step+1) : piece*(step+2)])
		}
		flipped := flippedProbes(w.Index, written, cut)
		moved := len(flipped)
		if replay && moved != 0 {
			t.Fatalf("the replay moved %d nearest regions", moved)
		}
		flips += moved
		advance()

		rep, err := hot.Report()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		gatheredFull, gatheredWeeks, readFull, readWeeks := hot.Suite().ResidentWork()
		appended, flippedRows := 0, 0
		for i, s := range written {
			if s.Lost || !w.Index.Known(s.ProbeID) {
				continue
			}
			if i >= cut {
				appended++
			}
			if flipped[s.ProbeID] {
				flippedRows++
			}
		}
		if bound := appended + flippedRows; readFull > bound || readWeeks > bound || readFull < appended {
			t.Errorf("step %d: the updates read %d and %d buffered rows; %d were appended and the %d flipped probes hold %d", step, readFull, readWeeks, appended, moved, flippedRows)
		}
		cold, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, week, 2, nil, core.SnapshotOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderSuite(t, rep), renderSuite(t, cold)) {
			t.Errorf("step %d: resident figures differ from the cold scan's", step)
		}
		for _, ct := range geo.Continents() {
			if got, want := rep.FullDist.N(ct), cold.FullDist.N(ct); got != want {
				t.Errorf("step %d %v: Figure 6 N %d, cold %d", step, ct, got, want)
			}
			if cold.FullDist.N(ct) == 0 {
				continue
			}
			for _, p := range []float64{0, .01, .25, .5, .9, .99, 1} {
				got, err1 := rep.FullDist.Quantile(ct, p)
				want, err2 := cold.FullDist.Quantile(ct, p)
				if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("step %d %v p=%v: Figure 6 quantile %v (%v), cold %v (%v)", step, ct, p, got, err1, want, err2)
				}
			}
		}
		if !reflect.DeepEqual(rep.LastMile, cold.LastMile) {
			t.Errorf("step %d: Figure 7 points differ from the cold scan's", step)
		}
		if got, want := significance(t, hot.Suite()), significance(t, coldSuite()); got != want {
			t.Errorf("step %d: KS result %s, cold %s", step, got, want)
		}

		coldCSVs := figureCSVs(t, cold)
		for sel, resident := range selective {
			srep, err := resident.Report()
			if err != nil {
				t.Fatal(err)
			}
			got := figureCSVs(t, srep)
			if len(got) == 0 {
				t.Fatalf("step %d: the %v suite reported nothing", step, sel)
			}
			for name, body := range got {
				if body != coldCSVs[name] {
					t.Errorf("step %d: the %v suite's figure %s differs from the cold scan's", step, sel, name)
				}
			}
			full, weeks, _, _ := resident.ResidentWork()
			if (sel == core.PassFullDist) != (weeks < 0) || (sel == core.PassLastMile) != (full < 0) {
				t.Errorf("step %d: the %v suite built sets for a figure it does not report (work %d, %d)", step, sel, full, weeks)
			}
		}

		if replay {
			// No flip: the update gathers the replay's kept rows and nothing
			// else — every row of a probe's nearest region, and for Figure 7
			// only the probes it admits.
			nearest := nearestRegions(w.Index, written)
			wantFull, wantWeeks := 0, 0
			for _, s := range written[cut:] {
				if s.Lost || !w.Index.Known(s.ProbeID) || s.Region != nearest[s.ProbeID] {
					continue
				}
				wantFull++
				access, _ := w.Index.Access(s.ProbeID)
				if tier, _ := w.Index.Tier(s.ProbeID); tier <= geo.Tier2 && access != core.AccessOther {
					wantWeeks++
				}
			}
			if gatheredFull != wantFull || gatheredWeeks != wantWeeks || wantWeeks == 0 {
				t.Errorf("the replay's update gathered %d and %d rows, want its %d and %d kept rows", gatheredFull, gatheredWeeks, wantFull, wantWeeks)
			}
		}
	}
	if flips < 100 {
		t.Fatalf("the campaign steps moved %d nearest regions; the test needs at least 100", flips)
	}
	t.Logf("%d steps, %d nearest-region flips", steps+1, flips)
}
