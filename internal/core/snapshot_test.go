package core_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/world"
)

// The snapshot tests drive a small appendable campaign: a store is
// created with a 24-round prefix and then grown one round at a time,
// checking after every append that a snapshot-resumed scan renders the
// same bytes as a cold scan for every worker count.

const (
	snapSeed     = 11
	snapBinWidth = 7 * 24 * time.Hour
)

// snapWorld is the shared world of the snapshot tests: built once, at
// the minimum size that still covers every country.
var (
	snapWorldOnce sync.Once
	snapWorldVal  *world.World
	snapWorldErr  error
)

func snapWorldGet(t *testing.T) *world.World {
	t.Helper()
	snapWorldOnce.Do(func() {
		snapWorldVal, snapWorldErr = world.Build(world.Config{Seed: snapSeed, Probes: 200})
	})
	if snapWorldErr != nil {
		t.Fatal(snapWorldErr)
	}
	return snapWorldVal
}

// snapConfig is the snapshot test campaign truncated to `rounds` rounds.
func snapConfig(rounds int) atlas.CampaignConfig {
	start := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	return atlas.CampaignConfig{
		Start:           start,
		End:             start.Add(time.Duration(rounds) * 3 * time.Hour),
		Interval:        3 * time.Hour,
		TargetsPerRound: 2,
		Participation:   1,
		PingsPerTarget:  1,
	}
}

// campaignPrefix synthesizes the first `rounds` rounds of the snapshot
// test campaign. Round synthesis depends only on the round index and
// timestamp, so a shorter window is an exact prefix of a longer one
// (asserted by the callers below).
func campaignPrefix(t *testing.T, w *world.World, rounds int) []results.Sample {
	t.Helper()
	var all []results.Sample
	_, err := w.Platform.RunCampaign(context.Background(), snapConfig(rounds), func(s results.Sample) error {
		all = append(all, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// storeDataEnd returns the append boundary of the store's samples file:
// the end of the last block, excluding the trailing index.
func storeDataEnd(t testing.TB, store *results.Store) int64 {
	t.Helper()
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	blocks := r.Blocks()
	if len(blocks) == 0 {
		return colf.HeaderSize
	}
	last := blocks[len(blocks)-1]
	return last.Off + last.Len
}

// appendSamples grows the store in place, exactly like a checkpoint
// resume would: reopen at the data end, append, close (which rewrites
// the block index).
func appendSamples(t testing.TB, store *results.Store, smps []results.Sample) {
	t.Helper()
	sink, err := store.Resume(storeDataEnd(t, store))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range smps {
		if err := sink.Write(s); err != nil {
			sink.Close()
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// buildStore writes samples into a fresh store under dir.
func buildStore(t testing.TB, dir string, meta results.Meta, smps []results.Sample) *results.Store {
	t.Helper()
	store, sink, err := results.Create(dir, meta, results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range smps {
		if err := sink.Write(s); err != nil {
			sink.Close()
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// coldRender renders the reference figures with a snapshot-free scan.
func coldRender(t *testing.T, store *results.Store, w *world.World, start time.Time) []byte {
	t.Helper()
	rep, _, err := core.ScanStore(context.Background(), store, w.Index, start, snapBinWidth, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return renderSuite(t, rep)
}

// TestSnapshotEquivalenceOverAppends is the tentpole's acceptance check:
// starting from a 24-round store, three successive one-round appends
// each render byte-identical figure lines and CSVs whether scanned cold
// or resumed from the pre-append snapshot, for workers 1, 2, 4 and 7 —
// and the resumed scans decode only the appended blocks.
func TestSnapshotEquivalenceOverAppends(t *testing.T) {
	w := snapWorldGet(t)
	full := campaignPrefix(t, w, 27)
	cuts := make([]int, 0, 3)
	for _, rounds := range []int{24, 25, 26} {
		prefix := campaignPrefix(t, w, rounds)
		if !reflect.DeepEqual(full[:len(prefix)], prefix) {
			t.Fatalf("%d-round campaign is not a prefix of the 27-round one", rounds)
		}
		cuts = append(cuts, len(prefix))
	}
	cfg := snapConfig(27)
	meta := cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len())
	ctx := context.Background()

	// The subtest name is the store encoding, kept from when there were two.
	t.Run("binary", func(t *testing.T) {
		store := buildStore(t, filepath.Join(t.TempDir(), "ds"), meta, full[:cuts[0]])
		snapPath := store.SnapshotPath()
		opts := func(sm *snap.Metrics) core.SnapshotOptions {
			return core.SnapshotOptions{Path: snapPath, Metrics: sm}
		}

		// First snapshot-enabled scan: no file yet, so a counted miss,
		// a cold scan, and a write — rendering the cold bytes.
		sm := snap.NewMetrics(obs.NewRegistry())
		rep, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil, opts(sm))
		if err != nil {
			t.Fatal(err)
		}
		if sm.Misses.Value() != 1 || sm.Writes.Value() != 1 || sm.Hits.Value() != 0 || sm.Invalidations.Value() != 0 {
			t.Fatalf("seed scan counters: miss=%d write=%d hit=%d invalid=%d",
				sm.Misses.Value(), sm.Writes.Value(), sm.Hits.Value(), sm.Invalidations.Value())
		}
		if got, want := renderSuite(t, rep), coldRender(t, store, w, cfg.Start); !bytes.Equal(got, want) {
			t.Fatal("seed snapshot scan diverges from cold scan")
		}

		// Pure hit: nothing appended, so nothing is decoded and the
		// snapshot is not rewritten.
		sm = snap.NewMetrics(obs.NewRegistry())
		rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil, opts(sm))
		if err != nil {
			t.Fatal(err)
		}
		if sm.Hits.Value() != 1 || sm.Writes.Value() != 0 || sm.Invalidations.Value() != 0 {
			t.Fatalf("pure-hit counters: hit=%d write=%d invalid=%d",
				sm.Hits.Value(), sm.Writes.Value(), sm.Invalidations.Value())
		}
		if st.Samples != 0 || st.BlocksRead != 0 {
			t.Fatalf("pure hit decoded %d samples, %d blocks", st.Samples, st.BlocksRead)
		}
		if got, want := renderSuite(t, rep), coldRender(t, store, w, cfg.Start); !bytes.Equal(got, want) {
			t.Fatal("pure-hit scan diverges from cold scan")
		}

		prev := cuts[0]
		for ai, cut := range []int{cuts[1], cuts[2], len(full)} {
			appendSamples(t, store, full[prev:cut])
			prev = cut
			// The snapshot on disk covers the pre-append prefix; replay
			// every worker count from that same starting point.
			preSnap, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			want := coldRender(t, store, w, cfg.Start)
			for _, workers := range []int{1, 2, 4, 7} {
				if err := os.WriteFile(snapPath, preSnap, 0o644); err != nil {
					t.Fatal(err)
				}
				sm := snap.NewMetrics(obs.NewRegistry())
				rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, workers, nil, opts(sm))
				if err != nil {
					t.Fatalf("append %d workers=%d: %v", ai+1, workers, err)
				}
				if !bytes.Equal(renderSuite(t, rep), want) {
					t.Errorf("append %d workers=%d: rendered figures diverge from cold scan", ai+1, workers)
				}
				if sm.Hits.Value() != 1 || sm.Misses.Value() != 0 || sm.Invalidations.Value() != 0 || sm.Writes.Value() != 1 {
					t.Errorf("append %d workers=%d counters: hit=%d miss=%d invalid=%d write=%d",
						ai+1, workers, sm.Hits.Value(), sm.Misses.Value(), sm.Invalidations.Value(), sm.Writes.Value())
				}
				if st.PrefixBytes == 0 {
					t.Errorf("append %d workers=%d: scan reports no resumed prefix", ai+1, workers)
				}
				if st.PrefixBlocks == 0 || st.BlocksRead != st.BlocksTotal-st.PrefixBlocks {
					t.Errorf("append %d workers=%d: decoded %d of %d blocks with %d-block prefix; want delta only",
						ai+1, workers, st.BlocksRead, st.BlocksTotal, st.PrefixBlocks)
				}
				if sm.BlocksSkipped.Value() != uint64(st.PrefixBlocks) {
					t.Errorf("append %d workers=%d: snap_blocks_skipped_total=%d, prefix holds %d blocks",
						ai+1, workers, sm.BlocksSkipped.Value(), st.PrefixBlocks)
				}
			}
		}
	})
}

// TestSnapshotInvalidation covers every discard path: a snapshot that
// does not exactly match the store (or analysis configuration) in front
// of it must be dropped — counted in snap_invalidations_total — and the
// scan must fall back cold and still render correct figures.
func TestSnapshotInvalidation(t *testing.T) {
	w := snapWorldGet(t)
	const rounds = 8
	full := campaignPrefix(t, w, rounds)
	cfg := snapConfig(rounds)
	meta := cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len())
	ctx := context.Background()

	// seedSnap gives an existing store a fresh valid snapshot.
	seedSnap := func(t *testing.T, store *results.Store) {
		t.Helper()
		sm := snap.NewMetrics(obs.NewRegistry())
		if _, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 2, nil,
			core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm}); err != nil {
			t.Fatal(err)
		}
		if sm.Writes.Value() != 1 {
			t.Fatalf("seeding wrote %d snapshots", sm.Writes.Value())
		}
	}

	// seed builds a store with a fresh valid snapshot.
	seed := func(t *testing.T) *results.Store {
		t.Helper()
		store := buildStore(t, filepath.Join(t.TempDir(), "ds"), meta, full)
		seedSnap(t, store)
		return store
	}

	// rescan runs one snapshot-enabled scan and asserts it invalidated the
	// snapshot, fell back cold, rendered the cold reference bytes, and
	// left a fresh snapshot behind that the next scan hits. It returns
	// the scan's snapshot log, which names the invalidation reason.
	rescan := func(t *testing.T, store *results.Store, binWidth time.Duration) string {
		t.Helper()
		var log bytes.Buffer
		sm := snap.NewMetrics(obs.NewRegistry())
		so := core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm, Log: obs.NewLogger(&log)}
		rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, binWidth, 3, nil, so)
		if err != nil {
			t.Fatal(err)
		}
		if sm.Invalidations.Value() != 1 || sm.Hits.Value() != 0 {
			t.Fatalf("counters after stale snapshot: invalid=%d hit=%d", sm.Invalidations.Value(), sm.Hits.Value())
		}
		if st.PrefixBytes != 0 {
			t.Fatalf("invalidated scan still resumed at byte %d", st.PrefixBytes)
		}
		coldRep, _, err := core.ScanStore(ctx, store, w.Index, cfg.Start, binWidth, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderSuite(t, rep), renderSuite(t, coldRep)) {
			t.Error("cold fallback diverges from snapshot-free scan")
		}
		if sm.Writes.Value() != 1 {
			t.Errorf("cold fallback wrote %d snapshots, want a fresh one", sm.Writes.Value())
		}
		sm2 := snap.NewMetrics(obs.NewRegistry())
		so.Metrics = sm2
		if _, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, binWidth, 3, nil, so); err != nil {
			t.Fatal(err)
		}
		if sm2.Hits.Value() != 1 || sm2.Invalidations.Value() != 0 {
			t.Errorf("fresh snapshot not hit: hit=%d invalid=%d", sm2.Hits.Value(), sm2.Invalidations.Value())
		}
		return log.String()
	}

	// tamperHeader rewrites the snapshot with a mutated header, keeping
	// the envelope internally consistent (CRC included) so only the
	// binding check can reject it.
	tamperHeader := func(t *testing.T, path string, mutate func(*snap.Header)) {
		t.Helper()
		h, payload, err := snap.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&h)
		if err := snap.WriteFile(path, h, payload); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("pass set change", func(t *testing.T) {
		// Analyzing with a different Figure 7 bin width is a different
		// pass set; the old snapshot's state must not leak into it.
		store := seed(t)
		rescan(t, store, 24*time.Hour)
	})

	t.Run("state version 1 snapshot", func(t *testing.T) {
		// A file from before the dictionary-coded state layout carries the
		// old pass-set version: it is refused at the header, its payload
		// never reaching the state decoder.
		store := seed(t)
		tamperHeader(t, store.SnapshotPath(), func(h *snap.Header) {
			v1 := strings.Replace(h.PassSet, "suite-v2|", "suite-v1|", 1)
			if v1 == h.PassSet {
				t.Fatalf("pass set %q is not state version 2", h.PassSet)
			}
			h.PassSet = v1
		})
		if log := rescan(t, store, snapBinWidth); !strings.Contains(log, `reason="header mismatch"`) {
			t.Errorf("v1 snapshot not refused as a header mismatch:\n%s", log)
		}
	})

	t.Run("malformed state", func(t *testing.T) {
		// A well-enveloped, correctly bound snapshot whose state breaks a
		// layout rule is dropped by the state decoder, not applied.
		store := seed(t)
		for _, tc := range malformedStates {
			h, _, err := snap.ReadFile(store.SnapshotPath())
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.WriteFile(store.SnapshotPath(), h, tc.shape.encode()); err != nil {
				t.Fatal(err)
			}
			if log := rescan(t, store, snapBinWidth); !strings.Contains(log, "state decode: ") || !strings.Contains(log, tc.want) {
				t.Errorf("%s: invalidation does not name %q:\n%s", tc.name, tc.want, log)
			}
		}
	})

	t.Run("index fingerprint mismatch", func(t *testing.T) {
		store := seed(t)
		tamperHeader(t, store.SnapshotPath(), func(h *snap.Header) { h.Index = "0000000000000000" })
		rescan(t, store, snapBinWidth)
	})

	t.Run("format byte", func(t *testing.T) {
		// The header's store-encoding byte has one valid value; a file
		// written for any other encoding binds to no store.
		store := seed(t)
		tamperHeader(t, store.SnapshotPath(), func(h *snap.Header) { h.Format = 0 })
		if log := rescan(t, store, snapBinWidth); !strings.Contains(log, "header mismatch") {
			t.Errorf("invalidation reason not header mismatch:\n%s", log)
		}
	})

	t.Run("meta fingerprint mismatch", func(t *testing.T) {
		store := seed(t)
		tamperHeader(t, store.SnapshotPath(), func(h *snap.Header) { h.Meta = "0000000000000000" })
		rescan(t, store, snapBinWidth)
	})

	t.Run("boundary not a block boundary", func(t *testing.T) {
		// A covered boundary that passes every header check but is not a
		// block boundary fails at scan time; the scan must then drop the
		// snapshot and retry cold instead of surfacing the error.
		store := seed(t)
		f, err := os.Open(store.SamplesPath())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tamperHeader(t, store.SnapshotPath(), func(h *snap.Header) {
			h.CoveredBytes--
			head, tail, err := snap.WindowCRCs(f, h.CoveredBytes)
			if err != nil {
				t.Fatal(err)
			}
			h.HeadCRC, h.TailCRC = head, tail
		})
		rescan(t, store, snapBinWidth)
	})

	t.Run("corrupt snapshot file", func(t *testing.T) {
		store := seed(t)
		data, err := os.ReadFile(store.SnapshotPath())
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(store.SnapshotPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rescan(t, store, snapBinWidth)
	})

	t.Run("truncated store", func(t *testing.T) {
		// A checkpoint-resume rollback shrinks the samples file below the
		// snapshot's covered boundary; the snapshot no longer prefixes the
		// store and must go.
		// Build the store in two sink sessions so it holds two blocks and
		// a mid-file block boundary exists to truncate at.
		store := buildStore(t, filepath.Join(t.TempDir(), "ds"), meta, full[:len(full)/2])
		appendSamples(t, store, full[len(full)/2:])
		seedSnap(t, store)
		r, closer, err := colf.Open(store.SamplesPath())
		if err != nil {
			t.Fatal(err)
		}
		blocks := r.Blocks()
		closer.Close()
		if len(blocks) < 2 {
			t.Fatalf("store has only %d blocks; test needs a mid-file boundary", len(blocks))
		}
		cut := blocks[len(blocks)/2].Off
		if err := os.Truncate(store.SamplesPath(), cut); err != nil {
			t.Fatal(err)
		}
		rescan(t, store, snapBinWidth)
	})

	t.Run("modified store content", func(t *testing.T) {
		// Same length, different bytes: the head window CRC catches an
		// in-place rewrite of covered data. RTTs are stored as raw bits,
		// so a store rebuilt with one RTT changed is a valid file of the
		// same size.
		store := seed(t)
		altered := append([]results.Sample(nil), full...)
		altered[0].RTTms += 0.25
		twin := buildStore(t, filepath.Join(t.TempDir(), "twin"), meta, altered)
		data, err := os.ReadFile(twin.SamplesPath())
		if err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(store.SamplesPath()); err != nil || fi.Size() != int64(len(data)) {
			t.Fatalf("twin store is %d bytes, original %v (%v); the rewrite must preserve length", len(data), fi, err)
		}
		if err := os.WriteFile(store.SamplesPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rescan(t, store, snapBinWidth)
	})
}

// stateShape hand-builds a minimal version-2 suite state: the region
// table, empty Proximity and MinRTT passes, a FullDist pass with one
// nearest-tracker entry and one entry list per probe (every list holds
// the same codes), an empty LastMile pass, 24 empty diurnal bins and no
// providers.
type stateShape struct {
	table   []string
	nearest uint64   // region code of the one nearest-tracker entry
	probes  []int64  // probe IDs of the FullDist entry lists
	codes   []uint64 // region codes of each list's entries
}

func (sh stateShape) encode() []byte {
	var d stats.Dist
	d.Add(12.5)
	b := snap.AppendUvarint(nil, uint64(len(sh.table)))
	for _, region := range sh.table {
		b = snap.AppendString(b, region)
	}
	b = snap.AppendUvarint(b, 0) // Proximity countries
	b = snap.AppendUvarint(b, 0) // MinRTT probes
	b = snap.AppendUvarint(b, 1) // FullDist nearest tracker
	b = snap.AppendVarint(b, 1)
	b = snap.AppendUvarint(b, sh.nearest)
	b = snap.AppendFloat(b, 12.5)
	b = snap.AppendUvarint(b, uint64(len(sh.probes)))
	for _, id := range sh.probes {
		b = snap.AppendVarint(b, id)
		b = snap.AppendUvarint(b, uint64(len(sh.codes)))
		for _, code := range sh.codes {
			b = snap.AppendUvarint(b, code)
			b = d.AppendState(b)
		}
	}
	b = snap.AppendUvarint(b, 0) // LastMile nearest tracker
	b = snap.AppendUvarint(b, 0) // LastMile streams
	for h := 0; h < 24; h++ {
		b = (&stats.Dist{}).AppendState(b)
	}
	return snap.AppendUvarint(b, 0) // providers
}

// malformedStates are the layout rules the version-2 decoder enforces,
// each broken once; want is the fragment of the decode error that names
// the rule.
var malformedStates = []struct {
	name  string
	shape stateShape
	want  string
}{
	{"nearest region code out of range", stateShape{[]string{"A/a", "B/b"}, 2, []int64{1}, []uint64{0, 1}}, "region code 2 outside the 2-entry table"},
	{"entry region code out of range", stateShape{[]string{"A/a", "B/b"}, 1, []int64{1}, []uint64{0, 7}}, "region code 7 outside the 2-entry table"},
	{"unsorted table", stateShape{[]string{"B/b", "A/a"}, 1, []int64{1}, []uint64{0, 1}}, "region table not strictly ascending"},
	{"duplicate table entry", stateShape{[]string{"A/a", "A/a"}, 1, []int64{1}, []uint64{0, 1}}, "region table not strictly ascending"},
	{"duplicate probe", stateShape{[]string{"A/a", "B/b"}, 1, []int64{1, 1}, []uint64{0, 1}}, "duplicate probe 1 in full-dist state"},
	{"entries out of order", stateShape{[]string{"A/a", "B/b"}, 1, []int64{1}, []uint64{1, 0}}, "regions out of order in full-dist state"},
	{"duplicate entry", stateShape{[]string{"A/a", "B/b"}, 1, []int64{1}, []uint64{1, 1}}, "regions out of order in full-dist state"},
}

// TestSuiteStateLayoutRules decodes the hand-built states directly: the
// well-formed shape is accepted (so each rejection below is for the
// rule it names, not a slip in the builder), and every malformed one
// fails cleanly with that rule's error.
func TestSuiteStateLayoutRules(t *testing.T) {
	w := snapWorldGet(t)
	start := snapConfig(1).Start
	ok := stateShape{[]string{"A/a", "B/b"}, 1, []int64{1, 2}, []uint64{0, 1}}
	if _, err := core.NewSuiteFromState(w.Index, start, snapBinWidth, ok.encode()); err != nil {
		t.Fatalf("well-formed state refused: %v", err)
	}
	for _, tc := range malformedStates {
		_, err := core.NewSuiteFromState(w.Index, start, snapBinWidth, tc.shape.encode())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestSuiteStateSpellsRegionsOnce is the golden check on the
// dictionary coding: every region the campaign delivered a sample from
// is spelled exactly once in the encoded state — in the region table —
// however many (probe, region) entries and nearest-trackers refer to it.
func TestSuiteStateSpellsRegionsOnce(t *testing.T) {
	w := snapWorldGet(t)
	const rounds = 8
	full := campaignPrefix(t, w, rounds)
	cfg := snapConfig(rounds)
	store := buildStore(t, filepath.Join(t.TempDir(), "ds"), cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len()), full)
	if _, _, err := core.ScanStoreSnap(context.Background(), store, w.Index, cfg.Start, snapBinWidth, 2, nil,
		core.SnapshotOptions{Path: store.SnapshotPath()}); err != nil {
		t.Fatal(err)
	}
	_, state, err := snap.ReadFile(store.SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]int{}
	for _, s := range full {
		if !s.Lost {
			refs[s.Region]++
		}
	}
	if len(refs) < 10 {
		t.Fatalf("campaign reached only %d regions", len(refs))
	}
	for region, n := range refs {
		if got := bytes.Count(state, snap.AppendString(nil, region)); got != 1 {
			t.Errorf("region %q (%d samples) is spelled %d times in the state, want once", region, n, got)
		}
	}
}

// TestScanStoreEmpty pins the empty-store sentinel, with and without
// snapshots enabled; an empty store must never leave a snapshot file
// behind.
func TestScanStoreEmpty(t *testing.T) {
	w := snapWorldGet(t)
	cfg := snapConfig(4)
	meta := cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len())
	store := buildStore(t, filepath.Join(t.TempDir(), "ds"), meta, nil)
	if _, _, err := core.ScanStore(context.Background(), store, w.Index, cfg.Start, snapBinWidth, 2, nil); !errors.Is(err, core.ErrEmptyStore) {
		t.Errorf("cold scan of empty store: err=%v, want ErrEmptyStore", err)
	}
	sm := snap.NewMetrics(obs.NewRegistry())
	_, _, err := core.ScanStoreSnap(context.Background(), store, w.Index, cfg.Start, snapBinWidth, 2, nil,
		core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm})
	if !errors.Is(err, core.ErrEmptyStore) {
		t.Errorf("snapshot scan of empty store: err=%v, want ErrEmptyStore", err)
	}
	if _, err := os.Stat(store.SnapshotPath()); !errors.Is(err, os.ErrNotExist) {
		t.Error("empty store grew a snapshot file")
	}
	// UpdateSnapshot treats empty as a no-op, not an error: the engine
	// calls it from checkpoint hooks before any samples may exist.
	if _, err := core.UpdateSnapshot(context.Background(), store, w.Index, cfg.Start, snapBinWidth, 2, nil,
		core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm}); err != nil {
		t.Errorf("UpdateSnapshot on empty store: %v", err)
	}
}

// TestSnapshotRefreshGate exercises the amortized-rewrite policy: a
// resumed scan whose delta sits below RefreshFactor of the covered
// prefix serves correct figures but defers the snapshot rewrite, so the
// next scan resumes from the same boundary; once the factor is crossed
// (or zeroed), the rewrite happens and later scans are pure hits.
func TestSnapshotRefreshGate(t *testing.T) {
	w := snapWorldGet(t)
	full := campaignPrefix(t, w, 27)
	prefix := campaignPrefix(t, w, 26)
	if !reflect.DeepEqual(full[:len(prefix)], prefix) {
		t.Fatal("26-round campaign is not a prefix of the 27-round one")
	}
	cfg := snapConfig(27)
	meta := cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len())
	ctx := context.Background()

	store := buildStore(t, filepath.Join(t.TempDir(), "ds"), meta, prefix)
	snapPath := store.SnapshotPath()

	// Seed write: the gate never blocks the first snapshot of a store.
	sm := snap.NewMetrics(obs.NewRegistry())
	_, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil,
		core.SnapshotOptions{Path: snapPath, Metrics: sm, RefreshFactor: core.DefaultRefreshFactor})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Writes.Value() != 1 {
		t.Fatalf("seed scan wrote %d snapshots, want 1", sm.Writes.Value())
	}
	appendSamples(t, store, full[len(prefix):])
	want := coldRender(t, store, w, cfg.Start)

	// One appended round is far below the default gate: figures are
	// served, but the rewrite is deferred — twice in a row, resuming
	// from the same boundary each time.
	for pass := 0; pass < 2; pass++ {
		sm = snap.NewMetrics(obs.NewRegistry())
		rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil,
			core.SnapshotOptions{Path: snapPath, Metrics: sm, RefreshFactor: core.DefaultRefreshFactor})
		if err != nil {
			t.Fatal(err)
		}
		if sm.Hits.Value() != 1 || sm.Writes.Value() != 0 || sm.Invalidations.Value() != 0 {
			t.Fatalf("pass %d counters: hit=%d write=%d invalid=%d",
				pass, sm.Hits.Value(), sm.Writes.Value(), sm.Invalidations.Value())
		}
		if st.BlocksRead == 0 || st.BlocksRead != st.BlocksTotal-st.PrefixBlocks {
			t.Fatalf("pass %d decoded %d blocks, delta is %d",
				pass, st.BlocksRead, st.BlocksTotal-st.PrefixBlocks)
		}
		if !bytes.Equal(renderSuite(t, rep), want) {
			t.Fatalf("pass %d: below-gate resumed scan diverges from cold scan", pass)
		}
	}

	// A factor small enough that the delta crosses it forces the rewrite.
	sm = snap.NewMetrics(obs.NewRegistry())
	if _, _, err = core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil,
		core.SnapshotOptions{Path: snapPath, Metrics: sm, RefreshFactor: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if sm.Hits.Value() != 1 || sm.Writes.Value() != 1 {
		t.Fatalf("crossed-gate counters: hit=%d write=%d", sm.Hits.Value(), sm.Writes.Value())
	}

	// The refreshed snapshot covers the whole store: pure hit, nothing
	// decoded, same figures.
	sm = snap.NewMetrics(obs.NewRegistry())
	rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil,
		core.SnapshotOptions{Path: snapPath, Metrics: sm, RefreshFactor: core.DefaultRefreshFactor})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Hits.Value() != 1 || sm.Writes.Value() != 0 || st.BlocksRead != 0 {
		t.Fatalf("pure-hit counters: hit=%d write=%d blocksRead=%d",
			sm.Hits.Value(), sm.Writes.Value(), st.BlocksRead)
	}
	if !bytes.Equal(renderSuite(t, rep), want) {
		t.Fatal("post-refresh pure hit diverges from cold scan")
	}
}

// TestIndexFingerprintGolden pins the digest of the paper world's probe
// index (seed 1, 3300 probes). Every samples.snap and samples.tix
// written for that world binds to it, so a change in how the digest is
// computed would orphan them all.
func TestIndexFingerprintGolden(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 1, Probes: 3300})
	if err != nil {
		t.Fatal(err)
	}
	const want = "3df1f93ee040e30f"
	for i := 0; i < 2; i++ {
		if got := w.Index.Fingerprint(); got != want {
			t.Fatalf("call %d: paper world index fingerprint = %s, want %s", i, got, want)
		}
	}
}
