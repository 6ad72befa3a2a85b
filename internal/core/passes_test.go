package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/snap"
	"repro/internal/stats"
)

const passBinWidth = 7 * 24 * time.Hour

// fixtureSamples returns the first n samples of the shared campaign.
func fixtureSamples(t *testing.T, n int) []results.Sample {
	t.Helper()
	stop := errors.New("enough")
	smps := make([]results.Sample, 0, n)
	err := dataset(t).mem.ForEach(func(s results.Sample) error {
		if len(smps) == n {
			return stop
		}
		smps = append(smps, s)
		return nil
	})
	if err != nil && !errors.Is(err, stop) {
		t.Fatal(err)
	}
	if len(smps) < n {
		t.Fatalf("fixture holds %d samples, test needs %d", len(smps), n)
	}
	return smps
}

// writeSession writes smps through sink, closes it, and returns the data
// end a later session resumes at.
func writeSession(t *testing.T, sink *results.Sink, smps []results.Sample) int64 {
	t.Helper()
	for _, s := range smps {
		if err := sink.Write(s); err != nil {
			sink.Close()
			t.Fatal(err)
		}
	}
	end, err := sink.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return end
}

func curves(t *testing.T, rep *CDFReport) map[geo.Continent][]stats.CDFPoint {
	t.Helper()
	out := map[geo.Continent][]stats.CDFPoint{}
	for _, ct := range rep.Continents() {
		c, err := rep.Curve(ct, DefaultGrid())
		if err != nil {
			t.Fatal(err)
		}
		out[ct] = c
	}
	return out
}

// TestPartialSuiteNeverEncodes pins the guard behind the snapshot
// write: the state is the two snapshot passes, so a suite that leaves
// either out cannot be encoded — and therefore not written — and
// nothing reaches the disk; one restricted to exactly those two can.
func TestPartialSuiteNeverEncodes(t *testing.T) {
	f := dataset(t)
	dir := t.TempDir()
	store, sink, err := results.Create(dir, f.cfg.Meta(11, f.pop.Len(), 1), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	end := writeSession(t, sink, fixtureSamples(t, 2000))

	s, err := NewSuite(f.idx, f.cfg.Start, passBinWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []PassSet{0, snapshotPasses, snapshotPasses | PassProvider} {
		s.sel = sel
		if _, err := s.EncodeState(); err != nil {
			t.Fatalf("suite over %v refused to encode: %v", sel, err)
		}
	}
	s.sel = PassFullDist | PassLastMile | PassProvider | PassProximity
	if _, err := s.EncodeState(); err == nil {
		t.Error("a suite without the min-rtt pass encoded")
	}
	s.sel = PassMinRTT
	if _, err := s.EncodeState(); err == nil || !strings.Contains(err.Error(), "min-rtt") {
		t.Errorf("partial suite encoded: err = %v", err)
	}
	path := filepath.Join(dir, "samples.snap")
	so := SnapshotOptions{Path: path}
	data, err := os.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	c := &covered{idx: f.idx, start: f.cfg.Start, binWidth: passBinWidth, suite: s, samples: 2000, bytes: end, blocks: 1}
	if _, err := c.snapshotImage(data, store); err == nil {
		t.Error("partial suite framed as a snapshot")
	}
	if err := c.writeIfDue(context.Background(), data, store, scan.Stats{DataEnd: end, BlocksTotal: 1}, so); err != nil {
		t.Errorf("a suite without both snapshot passes is not due a write: %v", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Errorf("refused write left %s behind (stat: %v)", path, serr)
	}

	whole, err := NewSuite(f.idx, f.cfg.Start, passBinWidth)
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Merge(s); err == nil {
		t.Error("partial suite merged into a whole one")
	}
}

// TestStoreGrowsAfterGateDecision appends to the store between the
// snapshot load and the scan. There is no decision to go stale any
// more: a Figure 5 resume folds both snapshot passes whatever the delta
// turns out to be, so the scan folds the larger delta, the figure
// matches a cold scan of the grown store, and the rewrite the gate asks
// for afterwards happens — leaving the file a cold scan would. A
// Figure 6 run over the same growing store never opens the file: same
// figure as a cold scan, samples.snap byte- and mtime-identical, no
// snap_* counter moved.
func TestStoreGrowsAfterGateDecision(t *testing.T) {
	f := dataset(t)
	smps := fixtureSamples(t, 60000)
	ctx := context.Background()

	for _, sel := range []PassSet{PassMinRTT, PassFullDist} {
		t.Run(sel.String(), func(t *testing.T) {
			dir := t.TempDir()
			store, sink, err := results.Create(dir, f.cfg.Meta(11, f.pop.Len(), 1), results.FormatBinary)
			if err != nil {
				t.Fatal(err)
			}
			end := writeSession(t, sink, smps[:40000])
			grow := func(lo, hi int) {
				t.Helper()
				sink, err := store.Resume(end)
				if err != nil {
					t.Fatal(err)
				}
				end = writeSession(t, sink, smps[lo:hi])
			}
			sm := snap.NewMetrics(obs.NewRegistry())
			so := SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm, Passes: sel}
			if _, err := UpdateSnapshot(ctx, store, f.idx, f.cfg.Start, passBinWidth, 2, nil, so); err != nil {
				t.Fatal(err)
			}
			if sm.Writes.Value() != 1 || sm.Misses.Value() != 1 {
				t.Fatalf("seeding: %d writes, %d misses", sm.Writes.Value(), sm.Misses.Value())
			}
			before, err := os.ReadFile(so.Path)
			if err != nil {
				t.Fatal(err)
			}
			beforeInfo, err := os.Stat(so.Path)
			if err != nil {
				t.Fatal(err)
			}
			coldFigure := func() map[geo.Continent][]stats.CDFPoint {
				t.Helper()
				cold, _, err := ScanStore(ctx, store, f.idx, f.cfg.Start, passBinWidth, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if sel == PassFullDist {
					return curves(t, cold.FullDist)
				}
				return curves(t, cold.MinRTT)
			}

			grow(40000, 41000) // 2.5 % of the covered prefix: below the gate
			if sel == PassFullDist {
				grow(41000, 60000)
				rep, st, err := ScanStoreSnap(ctx, store, f.idx, f.cfg.Start, passBinWidth, 2, nil, so)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Passes != PassFullDist || st.PrefixBlocks != 0 || st.Samples != 60000 {
					t.Errorf("full-dist run folded %v over a %d-block prefix and %d samples; want its own pass, cold, 60000", rep.Passes, st.PrefixBlocks, st.Samples)
				}
				if !reflect.DeepEqual(curves(t, rep.FullDist), coldFigure()) {
					t.Error("full-dist figure over the grown store diverges from a cold scan")
				}
				if sm.Writes.Value() != 1 || sm.Hits.Value() != 0 || sm.Misses.Value() != 1 || sm.Invalidations.Value() != 0 {
					t.Errorf("full-dist run moved a snap_* counter: writes=%d hits=%d misses=%d invalid=%d",
						sm.Writes.Value(), sm.Hits.Value(), sm.Misses.Value(), sm.Invalidations.Value())
				}
				after, err := os.ReadFile(so.Path)
				afterInfo, serr := os.Stat(so.Path)
				if err != nil || serr != nil || !bytes.Equal(after, before) || !afterInfo.ModTime().Equal(beforeInfo.ModTime()) {
					t.Errorf("full-dist run touched samples.snap (err %v, %v)", err, serr)
				}
				return
			}

			data, err := os.Open(store.SamplesPath())
			if err != nil {
				t.Fatal(err)
			}
			defer data.Close()
			size := func() int64 {
				t.Helper()
				fi, err := data.Stat()
				if err != nil {
					t.Fatal(err)
				}
				return fi.Size()
			}
			merged := &covered{idx: f.idx, start: f.cfg.Start, binWidth: passBinWidth, sel: snapshotPasses}
			merged.loadSnapshot(data, size(), store, so)
			if merged.suite == nil || merged.suite.sel != snapshotPasses || merged.samples != 40000 {
				t.Fatalf("loaded prefix = %v over %d samples, want the snapshot passes over 40000", merged.suite, merged.samples)
			}
			grow(41000, 60000) // now 50 %: above it

			st, err := merged.advanceTo(ctx, scan.Config{Workers: 2}, data, size())
			if err != nil {
				t.Fatal(err)
			}
			if merged.samples != 60000 || st.Samples != 20000 {
				t.Errorf("folded %d samples (%d scanned), want 60000 (20000)", merged.samples, st.Samples)
			}
			if !so.rewriteDue(st) {
				t.Fatal("the grown delta does not trip the gate; the test store is too small")
			}
			if err := merged.writeIfDue(ctx, data, store, st, so); err != nil {
				t.Fatal(err)
			}
			if sm.Writes.Value() != 2 {
				t.Errorf("snap_writes_total = %d after the resumed scan, want 2", sm.Writes.Value())
			}
			got, err := merged.report(sel)
			if err != nil {
				t.Fatal(err)
			}
			if got.Proximity != nil || !reflect.DeepEqual(curves(t, got.MinRTT), coldFigure()) {
				t.Errorf("%v figure over the grown store diverges from a cold scan (proximity report %v)", sel, got.Proximity)
			}
			coldPath := filepath.Join(t.TempDir(), "cold.snap")
			if _, err := UpdateSnapshot(ctx, store, f.idx, f.cfg.Start, passBinWidth, 1, nil, SnapshotOptions{Path: coldPath}); err != nil {
				t.Fatal(err)
			}
			resumedSnap, err1 := os.ReadFile(so.Path)
			coldSnap, err2 := os.ReadFile(coldPath)
			if err1 != nil || err2 != nil || !bytes.Equal(resumedSnap, coldSnap) {
				t.Errorf("the resumed rewrite differs from a cold scan's file (%v, %v)", err1, err2)
			}

			// The next run is a pure hit on the rewritten file.
			rep, st, err := ScanStoreSnap(ctx, store, f.idx, f.cfg.Start, passBinWidth, 2, nil, so)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Passes != snapshotPasses || st.BlocksRead != 0 || sm.Writes.Value() != 2 {
				t.Errorf("follow-up run folded %v, read %d blocks and left snap_writes_total at %d; want the snapshot passes, 0 and 2", rep.Passes, st.BlocksRead, sm.Writes.Value())
			}
		})
	}
}
