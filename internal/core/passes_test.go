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

// TestPartialSuiteNeverEncodes pins the guard behind the pass-selective
// resume: a suite restricted to some passes holds the other passes'
// state incomplete, so encoding it — and therefore writing it as a
// snapshot — is an error, and nothing reaches the disk.
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
	if _, err := s.EncodeState(); err != nil {
		t.Fatalf("whole suite refused to encode: %v", err)
	}
	s.sel = PassMinRTT
	if _, err := s.EncodeState(); err == nil || !strings.Contains(err.Error(), "min-rtt") {
		t.Errorf("partial suite encoded: err = %v", err)
	}
	path := filepath.Join(dir, "samples.snap")
	err = writeSnapshot(context.Background(), path, store, f.idx, f.cfg.Start, passBinWidth, s, 2000, scan.Stats{DataEnd: end, BlocksTotal: 1}, SnapshotOptions{Path: path})
	if err == nil {
		t.Error("partial suite written as a snapshot")
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
// pre-scan gate decision and the scan. The decision (delta below the
// gate: work one pass) stands, the scan folds the larger delta into
// that pass, the figure matches a cold scan of the grown store, and
// the rewrite the post-scan gate now asks for is skipped — the partial
// suite never reaches the file.
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
			so := SnapshotOptions{Path: store.SnapshotPath(), RefreshFactor: DefaultRefreshFactor, Metrics: sm, Passes: sel}
			if _, _, err := ScanStoreSnap(ctx, store, f.idx, f.cfg.Start, passBinWidth, 2, nil, so); err != nil {
				t.Fatal(err)
			}
			if sm.Writes.Value() != 1 {
				t.Fatalf("seeding wrote %d snapshots", sm.Writes.Value())
			}
			before, err := os.ReadFile(store.SnapshotPath())
			if err != nil {
				t.Fatal(err)
			}

			grow(40000, 41000) // 2.5 % of the covered prefix: below the gate
			prefix, covered, resume := loadSnapshot(so.Path, store, f.idx, f.cfg.Start, passBinWidth, so)
			if prefix == nil || prefix.sel != sel {
				t.Fatalf("decision below the gate: prefix = %v, want one over %v", prefix, sel)
			}
			grow(41000, 60000) // now 50 %: above it

			merged, total, st, err := scanSeeded(ctx, store, f.idx, f.cfg.Start, passBinWidth, 2, nil, so, prefix, covered, resume)
			if err != nil {
				t.Fatal(err)
			}
			if total != 60000 || st.Samples != 20000 {
				t.Errorf("folded %d samples (%d scanned), want 60000 (20000)", total, st.Samples)
			}
			if !so.rewriteDue(resume, st.DataEnd) {
				t.Fatal("the grown delta does not trip the gate; the test store is too small")
			}
			if sm.Writes.Value() != 1 {
				t.Errorf("snap_writes_total = %d after the scan, want the seeding write only", sm.Writes.Value())
			}
			if after, err := os.ReadFile(store.SnapshotPath()); err != nil || !bytes.Equal(after, before) {
				t.Errorf("snapshot changed under a partial suite (err %v)", err)
			}
			got, err := merged.report(sel)
			if err != nil {
				t.Fatal(err)
			}
			cold, _, err := ScanStore(ctx, store, f.idx, f.cfg.Start, passBinWidth, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotRep, coldRep := got.MinRTT, cold.MinRTT
			if sel == PassFullDist {
				gotRep, coldRep = got.FullDist, cold.FullDist
			}
			if !reflect.DeepEqual(curves(t, gotRep), curves(t, coldRep)) {
				t.Errorf("%v figure over the grown store diverges from a cold scan", sel)
			}

			// The next run decides from the grown store: whole suite, one write.
			rep, _, err := ScanStoreSnap(ctx, store, f.idx, f.cfg.Start, passBinWidth, 2, nil, so)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Passes.partial() || sm.Writes.Value() != 2 {
				t.Errorf("follow-up run worked %v and left snap_writes_total at %d; want all passes and 2", rep.Passes, sm.Writes.Value())
			}
		})
	}
}
