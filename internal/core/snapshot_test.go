package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/snap"
	"repro/internal/world"
)

// The snapshot tests drive a small appendable campaign: a store is
// created with a 24-round prefix and then grown a round or two at a
// time, checking after every append that a snapshot-resumed scan renders
// the same bytes as a cold scan for every worker count.

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

// snapPasses is the pass set of the figures a snapshot can answer:
// every scan below that is meant to open samples.snap asks for it.
const snapPasses = core.PassProximity | core.PassMinRTT

// renderSnapPasses renders Figures 4 and 5 — what a snapPasses report
// holds — to their user-visible bytes, lines then CSVs.
func renderSnapPasses(tb testing.TB, rep *core.SuiteReport) []byte {
	tb.Helper()
	var buf bytes.Buffer
	lines5, err := figures.CDFLines(rep.MinRTT)
	if err != nil {
		tb.Fatal(err)
	}
	buf.WriteString(strings.Join(append(figures.Figure4Lines(rep.Proximity), lines5...), "\n") + "\n")
	if err := figures.Figure4CSV(&buf, rep.Proximity); err != nil {
		tb.Fatal(err)
	}
	if err := figures.CDFCSV(&buf, rep.MinRTT); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// coldRender renders the reference figures with a snapshot-free scan.
func coldRender(t *testing.T, store *results.Store, w *world.World, start time.Time) []byte {
	t.Helper()
	rep, _, err := core.ScanStore(context.Background(), store, w.Index, start, snapBinWidth, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return renderSnapPasses(t, rep)
}

// TestSnapshotEquivalenceOverAppends is the snapshot's acceptance check:
// starting from a 24-round store, three successive two-round appends —
// each past the refresh gate, so each resumed scan rewrites the file —
// each render byte-identical Figure 4/5 lines and CSVs and leave a
// byte-identical samples.snap whether scanned cold or resumed from the
// pre-append snapshot, for workers 1, 2, 4 and 7 — and the resumed
// scans decode only the appended blocks.
func TestSnapshotEquivalenceOverAppends(t *testing.T) {
	w := snapWorldGet(t)
	full := campaignPrefix(t, w, 30)
	cuts := make([]int, 0, 3)
	for _, rounds := range []int{24, 26, 28} {
		prefix := campaignPrefix(t, w, rounds)
		if !reflect.DeepEqual(full[:len(prefix)], prefix) {
			t.Fatalf("%d-round campaign is not a prefix of the 30-round one", rounds)
		}
		cuts = append(cuts, len(prefix))
	}
	cfg := snapConfig(30)
	meta := cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len())
	ctx := context.Background()

	// The subtest name is the store encoding, kept from when there were two.
	t.Run("binary", func(t *testing.T) {
		store := buildStore(t, filepath.Join(t.TempDir(), "ds"), meta, full[:cuts[0]])
		snapPath := store.SnapshotPath()
		opts := func(sm *snap.Metrics) core.SnapshotOptions {
			return core.SnapshotOptions{Path: snapPath, Metrics: sm, Passes: snapPasses}
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
		if got, want := renderSnapPasses(t, rep), coldRender(t, store, w, cfg.Start); !bytes.Equal(got, want) {
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
		if got, want := renderSnapPasses(t, rep), coldRender(t, store, w, cfg.Start); !bytes.Equal(got, want) {
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
			// What a cold scan of the grown store writes: the file every
			// resumed scan below must leave behind, byte for byte.
			coldPath := filepath.Join(t.TempDir(), "cold.snap")
			if _, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 1, nil, core.SnapshotOptions{Path: coldPath, Passes: snapPasses}); err != nil {
				t.Fatal(err)
			}
			coldSnap, err := os.ReadFile(coldPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 7} {
				if err := os.WriteFile(snapPath, preSnap, 0o644); err != nil {
					t.Fatal(err)
				}
				sm := snap.NewMetrics(obs.NewRegistry())
				rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, workers, nil, opts(sm))
				if err != nil {
					t.Fatalf("append %d workers=%d: %v", ai+1, workers, err)
				}
				if !bytes.Equal(renderSnapPasses(t, rep), want) {
					t.Errorf("append %d workers=%d: rendered figures diverge from cold scan", ai+1, workers)
				}
				if resumed, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(resumed, coldSnap) {
					t.Errorf("append %d workers=%d: resumed scan left a different samples.snap than a cold scan (err %v)", ai+1, workers, err)
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
			core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm, Passes: snapPasses}); err != nil {
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

	// rescan runs one Figure 4/5 scan and asserts it invalidated the
	// snapshot, fell back cold, rendered the cold reference bytes, and
	// left a fresh snapshot behind that the next scan hits. It returns
	// the scan's snapshot log, which names the invalidation reason.
	rescan := func(t *testing.T, store *results.Store, binWidth time.Duration) string {
		t.Helper()
		var log bytes.Buffer
		sm := snap.NewMetrics(obs.NewRegistry())
		so := core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm, Log: slog.New(slog.NewTextHandler(&log, nil)), Passes: snapPasses}
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
		if !bytes.Equal(renderSnapPasses(t, rep), renderSnapPasses(t, coldRep)) {
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

	// tamper rewrites the snapshot with one field changed and every CRC
	// recomputed, so only the check the change targets can reject it.
	tamper := func(t *testing.T, path string, mutate func(*core.SnapshotFile)) {
		t.Helper()
		f, err := core.ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&f)
		if err := f.Write(path); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("pass set change", func(t *testing.T) {
		// Analyzing with a different Figure 7 bin width is a different
		// pass set; the file binds to the geometry it was written under.
		store := seed(t)
		rescan(t, store, 24*time.Hour)
	})

	for _, old := range []string{"1", "2", "3"} {
		t.Run("state version "+old+" snapshot", func(t *testing.T) {
			// A file written under an earlier state layout carries that
			// layout's pass-set version: it is refused at the header, its
			// payload never reaching the state decoder, and the cold rebuild
			// leaves exactly the file a store that never had one gets.
			store := seed(t)
			fresh, err := os.ReadFile(store.SnapshotPath())
			if err != nil {
				t.Fatal(err)
			}
			tamper(t, store.SnapshotPath(), func(f *core.SnapshotFile) {
				stale := strings.Replace(f.Binding.PassSet, "suite-v5|", "suite-v"+old+"|", 1)
				if stale == f.Binding.PassSet {
					t.Fatalf("pass set %q is not state version 5", f.Binding.PassSet)
				}
				f.Binding.PassSet = stale
			})
			if log := rescan(t, store, snapBinWidth); !strings.Contains(log, `reason="header mismatch"`) {
				t.Errorf("v%s snapshot not refused as a header mismatch:\n%s", old, log)
			}
			if rebuilt, err := os.ReadFile(store.SnapshotPath()); err != nil || !bytes.Equal(rebuilt, fresh) {
				t.Errorf("rebuild over a v%s file left a different snapshot (err %v)", old, err)
			}
		})
	}

	t.Run("state version 4 envelope", func(t *testing.T) {
		// The whole-file-CRC envelope the snapshot had before it took the
		// shared record format: its first bytes are another format
		// version, so it is refused at the magic, and the cold rebuild
		// replaces it with the file a fresh store gets.
		store := seed(t)
		fresh, err := os.ReadFile(store.SnapshotPath())
		if err != nil {
			t.Fatal(err)
		}
		f, err := core.ReadSnapshotFile(store.SnapshotPath())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store.SnapshotPath(), v4Envelope(f), 0o644); err != nil {
			t.Fatal(err)
		}
		if log := rescan(t, store, snapBinWidth); !strings.Contains(log, `reason="header mismatch"`) {
			t.Errorf("v4 envelope not refused as a header mismatch:\n%s", log)
		}
		if rebuilt, err := os.ReadFile(store.SnapshotPath()); err != nil || !bytes.Equal(rebuilt, fresh) {
			t.Errorf("rebuild over a v4 envelope left a different snapshot (err %v)", err)
		}
	})

	t.Run("malformed state", func(t *testing.T) {
		// A well-framed, correctly bound snapshot whose state breaks a
		// layout rule is dropped by the state decoder, not applied.
		store := seed(t)
		_, bad := malformedStates(t, w.Index)
		for _, tc := range bad {
			tamper(t, store.SnapshotPath(), func(f *core.SnapshotFile) { f.State = tc.shape.encode() })
			if log := rescan(t, store, snapBinWidth); !strings.Contains(log, "state decode: ") || !strings.Contains(log, tc.want) {
				t.Errorf("%s: invalidation does not name %q:\n%s", tc.name, tc.want, log)
			}
		}
	})

	t.Run("index fingerprint mismatch", func(t *testing.T) {
		store := seed(t)
		tamper(t, store.SnapshotPath(), func(f *core.SnapshotFile) { f.Binding.Index = "0000000000000000" })
		rescan(t, store, snapBinWidth)
	})

	t.Run("format byte", func(t *testing.T) {
		// The magic's format version byte has one valid value; a file of
		// any other version binds to nothing, its records unread.
		store := seed(t)
		data, err := os.ReadFile(store.SnapshotPath())
		if err != nil {
			t.Fatal(err)
		}
		data[4]++
		if err := os.WriteFile(store.SnapshotPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if log := rescan(t, store, snapBinWidth); !strings.Contains(log, "header mismatch") {
			t.Errorf("invalidation reason not header mismatch:\n%s", log)
		}
	})

	t.Run("meta fingerprint mismatch", func(t *testing.T) {
		store := seed(t)
		tamper(t, store.SnapshotPath(), func(f *core.SnapshotFile) { f.Binding.Meta = "0000000000000000" })
		rescan(t, store, snapBinWidth)
	})

	t.Run("boundary not a block boundary", func(t *testing.T) {
		// A covered boundary that passes every file check but is not a
		// block boundary fails at scan time; the scan must then drop the
		// snapshot and retry cold instead of surfacing the error.
		store := seed(t)
		f, err := os.Open(store.SamplesPath())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tamper(t, store.SnapshotPath(), func(sf *core.SnapshotFile) {
			sf.Cover.Bytes--
			head, tail, err := snap.WindowCRCs(f, sf.Cover.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			sf.Cover.HeadCRC, sf.Cover.TailCRC = head, tail
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

// v4Envelope frames f the way the snapshot was written before it took
// the shared record format: magic "SNAP" 1, a length-prefixed header
// (binding under state version 4, store-format byte, coverage), the
// length-prefixed state, and a CRC32C over everything before it.
func v4Envelope(f core.SnapshotFile) []byte {
	h := snap.AppendString(nil, strings.Replace(f.Binding.PassSet, "suite-v5|", "suite-v4|", 1))
	h = snap.AppendString(h, f.Binding.Index)
	h = snap.AppendString(h, f.Binding.Meta)
	h = append(h, 1)
	h = snap.AppendVarint(h, f.Cover.Bytes)
	h = snap.AppendUvarint(h, uint64(f.Cover.Blocks))
	h = snap.AppendUvarint(h, f.Cover.Samples)
	h = snap.AppendUint32(h, f.Cover.HeadCRC)
	h = snap.AppendUint32(h, f.Cover.TailCRC)
	img := snap.AppendUvarint([]byte("SNAP\x01\x00\x00\n"), uint64(len(h)))
	img = snap.AppendUvarint(append(img, h...), uint64(len(f.State)))
	img = append(img, f.State...)
	return snap.AppendUint32(img, crc32.Checksum(img, crc32.MakeTable(crc32.Castagnoli)))
}

// stateShape hand-builds a version-5 suite state: the proximity section
// (country, minimum, samples), the min-rtt section (probe, minimum) and
// whatever follows them.
type stateShape struct {
	countries []shapeCountry
	probes    []shapeProbe
	tail      []byte
}

type shapeCountry struct {
	iso     string
	min     float64
	samples uint64
}

type shapeProbe struct {
	id  int64
	min float64
}

func (sh stateShape) encode() []byte {
	b := snap.AppendUvarint(nil, uint64(len(sh.countries)))
	for _, c := range sh.countries {
		b = snap.AppendString(b, c.iso)
		b = snap.AppendFloat(b, c.min)
		b = snap.AppendUvarint(b, c.samples)
	}
	b = snap.AppendUvarint(b, uint64(len(sh.probes)))
	for _, p := range sh.probes {
		b = snap.AppendVarint(b, p.id)
		b = snap.AppendFloat(b, p.min)
	}
	return append(b, sh.tail...)
}

// shapeProbes picks the probes the hand-built states use: two the index
// knows, ascending, and an ID outside it.
func shapeProbes(t testing.TB, idx *core.Index) (first, second, unknown int64) {
	t.Helper()
	for id := 1; id < 1<<20; id++ {
		switch {
		case !idx.Known(id):
			if second != 0 {
				return first, second, int64(id)
			}
		case first == 0:
			first = int64(id)
		case second == 0:
			second = int64(id)
		}
	}
	t.Fatal("world lacks two known probes and an unknown one")
	return
}

// malformedStates returns a well-formed shape and the layout rules the
// version-5 decoder enforces, each broken once in a copy of it; want is
// the fragment of the decode error that names the rule.
func malformedStates(t testing.TB, idx *core.Index) (ok stateShape, bad []malformedState) {
	first, second, unknown := shapeProbes(t, idx)
	de, fr := shapeCountry{"DE", 4.5, 12}, shapeCountry{"FR", 9, 3}
	a, b := shapeProbe{first, 12.5}, shapeProbe{second, 30}
	ok = stateShape{countries: []shapeCountry{de, fr}, probes: []shapeProbe{a, b}}
	countries := func(cs ...shapeCountry) stateShape { return stateShape{countries: cs, probes: ok.probes} }
	probes := func(ps ...shapeProbe) stateShape { return stateShape{countries: ok.countries, probes: ps} }
	bad = []malformedState{
		{"descending countries", countries(fr, de), "out of order in proximity state"},
		{"duplicate country", countries(de, de), "out of order in proximity state"},
		{"NaN country minimum", countries(shapeCountry{"DE", math.NaN(), 1}), "invalid RTT NaN in proximity state"},
		{"infinite country minimum", countries(shapeCountry{"DE", math.Inf(1), 1}), "invalid RTT +Inf in proximity state"},
		{"country without samples", countries(shapeCountry{"DE", 4.5, 0}), "holds 0 samples in proximity state"},
		{"descending probes", probes(b, a), fmt.Sprintf("probe %d out of order", a.id)},
		{"duplicate probe", probes(a, a), fmt.Sprintf("probe %d out of order", a.id)},
		{"negative probe", probes(shapeProbe{-1, 9}), "probe -1 out of order"},
		{"unknown probe", probes(shapeProbe{unknown, 9}), fmt.Sprintf("probe %d in min-rtt state is not in the index", unknown)},
		{"NaN probe minimum", probes(shapeProbe{a.id, math.NaN()}), "invalid RTT NaN in min-rtt state"},
		{"infinite probe minimum", probes(shapeProbe{a.id, math.Inf(-1)}), "invalid RTT -Inf in min-rtt state"},
		{"a third section", stateShape{ok.countries, ok.probes, []byte{0}}, "1 trailing bytes in suite state"},
	}
	return ok, bad
}

type malformedState struct {
	name  string
	shape stateShape
	want  string
}

// TestSuiteStateLayoutRules decodes the hand-built states directly: the
// well-formed shape is accepted and re-encodes to the same bytes (so
// each rejection below is for the rule it names, not a slip in the
// builder), and every malformed one fails cleanly with that rule's
// error.
func TestSuiteStateLayoutRules(t *testing.T) {
	w := snapWorldGet(t)
	start := snapConfig(1).Start
	ok, bad := malformedStates(t, w.Index)
	s, err := core.NewSuiteFromState(w.Index, start, snapBinWidth, ok.encode())
	if err != nil {
		t.Fatalf("well-formed state refused: %v", err)
	}
	if again, err := s.EncodeState(); err != nil || !bytes.Equal(again, ok.encode()) {
		t.Errorf("well-formed state does not round-trip (err %v)", err)
	}
	for _, tc := range bad {
		_, err := core.NewSuiteFromState(w.Index, start, snapBinWidth, tc.shape.encode())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotSizeFollowsWorld pins the rule the state grammar encodes:
// samples.snap is a function of the world — countries and probes — not
// of how many samples the campaign delivered. A 10-day and a 40-day run
// of one world differ by under a kibibyte (varint widths of the counts)
// and both stay under 64 KiB.
func TestSnapshotSizeFollowsWorld(t *testing.T) {
	w := snapWorldGet(t)
	sizes := map[int]int64{}
	for _, days := range []int{10, 40} {
		rounds := days * 8
		cfg := snapConfig(rounds)
		full := campaignPrefix(t, w, rounds)
		store := buildStore(t, filepath.Join(t.TempDir(), "ds"), cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len()), full)
		if _, _, err := core.ScanStoreSnap(context.Background(), store, w.Index, cfg.Start, snapBinWidth, 2, nil,
			core.SnapshotOptions{Path: store.SnapshotPath()}); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(store.SnapshotPath())
		if err != nil {
			t.Fatal(err)
		}
		sizes[days] = fi.Size()
		if fi.Size() >= 64<<10 {
			t.Errorf("%d-day snapshot is %d bytes over %d samples, want < 64 KiB", days, fi.Size(), len(full))
		}
	}
	if d := sizes[40] - sizes[10]; d < 0 || d >= 1<<10 {
		t.Errorf("10-day snapshot %d bytes, 40-day %d: four times the samples moved the size by %d", sizes[10], sizes[40], d)
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

// TestSnapshotWriteFailureKeepsReport occupies the snapshot path with a
// directory. ScanStoreSnap's job is the report: the scan succeeded, so
// it returns the cold scan's figures, counts the failed write and warns.
// UpdateSnapshot's only job is the write, so it returns the error.
func TestSnapshotWriteFailureKeepsReport(t *testing.T) {
	w := snapWorldGet(t)
	cfg := snapConfig(8)
	store := buildStore(t, filepath.Join(t.TempDir(), "ds"), cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len()), campaignPrefix(t, w, 8))
	if err := os.MkdirAll(filepath.Join(store.SnapshotPath(), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, passes := range []core.PassSet{core.PassProximity, 0} {
		var log bytes.Buffer
		sm := snap.NewMetrics(obs.NewRegistry())
		so := core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm, Log: slog.New(slog.NewTextHandler(&log, nil)), Passes: passes}
		rep, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 2, nil, so)
		if err != nil {
			t.Fatalf("passes %v: an unwritable snapshot cost the report: %v", passes, err)
		}
		cold, _, err := core.ScanStore(ctx, store, w.Index, cfg.Start, snapBinWidth, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if figureCSVs(t, rep)["4"] != figureCSVs(t, cold)["4"] {
			t.Errorf("passes %v: Figure 4 beside an unwritable snapshot differs from a cold scan's", passes)
		}
		if sm.WriteErrors.Value() != 1 || sm.Writes.Value() != 0 {
			t.Errorf("passes %v: snap_write_errors_total=%d snap_writes_total=%d, want 1 and 0", passes, sm.WriteErrors.Value(), sm.Writes.Value())
		}
		if !strings.Contains(log.String(), "level=WARN") || !strings.Contains(log.String(), "snapshot not written") {
			t.Errorf("passes %v: the failed write is not warned about:\n%s", passes, log.String())
		}
	}
	if _, err := core.UpdateSnapshot(ctx, store, w.Index, cfg.Start, snapBinWidth, 2, nil,
		core.SnapshotOptions{Path: store.SnapshotPath()}); err == nil || !strings.Contains(err.Error(), "writing snapshot") {
		t.Errorf("UpdateSnapshot over an unwritable path: err = %v", err)
	}
}

// TestSnapshotRefreshGate exercises the amortized-rewrite policy: a
// resumed scan whose delta sits below DefaultRefreshFactor of the
// covered prefix serves correct figures but defers the snapshot
// rewrite, so the next scan resumes from the same boundary; once the
// store grows past the factor, the rewrite happens and later scans are
// pure hits.
func TestSnapshotRefreshGate(t *testing.T) {
	w := snapWorldGet(t)
	full := campaignPrefix(t, w, 28)
	prefix := campaignPrefix(t, w, 26)
	one := len(campaignPrefix(t, w, 27))
	if !reflect.DeepEqual(full[:len(prefix)], prefix) {
		t.Fatal("26-round campaign is not a prefix of the 28-round one")
	}
	cfg := snapConfig(28)
	meta := cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len())
	ctx := context.Background()

	store := buildStore(t, filepath.Join(t.TempDir(), "ds"), meta, prefix)
	snapPath := store.SnapshotPath()

	// Seed write: the gate never blocks the first snapshot of a store.
	sm := snap.NewMetrics(obs.NewRegistry())
	_, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil,
		core.SnapshotOptions{Path: snapPath, Metrics: sm, Passes: snapPasses})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Writes.Value() != 1 {
		t.Fatalf("seed scan wrote %d snapshots, want 1", sm.Writes.Value())
	}
	appendSamples(t, store, full[len(prefix):one])
	want := coldRender(t, store, w, cfg.Start)

	// One appended round is far below the default gate: figures are
	// served, but the rewrite is deferred — twice in a row, resuming
	// from the same boundary each time.
	for pass := 0; pass < 2; pass++ {
		sm = snap.NewMetrics(obs.NewRegistry())
		rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil,
			core.SnapshotOptions{Path: snapPath, Metrics: sm, Passes: snapPasses})
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
		if !bytes.Equal(renderSnapPasses(t, rep), want) {
			t.Fatalf("pass %d: below-gate resumed scan diverges from cold scan", pass)
		}
	}

	// A second round takes the delta past the gate: the rewrite happens.
	appendSamples(t, store, full[one:])
	want = coldRender(t, store, w, cfg.Start)
	sm = snap.NewMetrics(obs.NewRegistry())
	if _, _, err = core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil,
		core.SnapshotOptions{Path: snapPath, Metrics: sm, Passes: snapPasses}); err != nil {
		t.Fatal(err)
	}
	if sm.Hits.Value() != 1 || sm.Writes.Value() != 1 {
		t.Fatalf("crossed-gate counters: hit=%d write=%d", sm.Hits.Value(), sm.Writes.Value())
	}

	// The refreshed snapshot covers the whole store: pure hit, nothing
	// decoded, same figures.
	sm = snap.NewMetrics(obs.NewRegistry())
	rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 3, nil,
		core.SnapshotOptions{Path: snapPath, Metrics: sm, Passes: snapPasses})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Hits.Value() != 1 || sm.Writes.Value() != 0 || st.BlocksRead != 0 {
		t.Fatalf("pure-hit counters: hit=%d write=%d blocksRead=%d",
			sm.Hits.Value(), sm.Writes.Value(), st.BlocksRead)
	}
	if !bytes.Equal(renderSnapPasses(t, rep), want) {
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

// FuzzSuiteState feeds arbitrary bytes to the suite-state decoder. It
// must never panic and never allocate out of proportion to its input —
// nothing is sized by a count the input spells; the maps grow one
// decoded entry at a time — and a state it accepts must survive a round trip: the
// re-encoding decodes again and encodes to the same bytes. The seeds are
// a real campaign's state (which must re-encode to itself exactly), the
// hand-built well-formed shape and every malformed one.
func FuzzSuiteState(f *testing.F) {
	w, err := world.Build(world.Config{Seed: snapSeed, Probes: 200})
	if err != nil {
		f.Fatal(err)
	}
	cfg := snapConfig(1)
	var mem results.Memory
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, mem.Add); err != nil {
		f.Fatal(err)
	}
	real, err := core.RowOracle(&mem, w.Index, cfg.Start, snapBinWidth)
	if err != nil {
		f.Fatal(err)
	}
	realState, err := real.EncodeState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(realState)
	f.Add(realState[:len(realState)/2])
	ok, bad := malformedStates(f, w.Index)
	f.Add(ok.encode())
	for _, tc := range bad {
		f.Add(tc.shape.encode())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := core.NewSuiteFromState(w.Index, cfg.Start, snapBinWidth, data)
		runtime.ReadMemStats(&after)
		// A fresh suite is ~100 KB at this world size; past that, decoding
		// may hold a small multiple of what the input spells.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc, err := s.EncodeState()
		if err != nil {
			t.Fatalf("accepted state does not encode: %v", err)
		}
		if bytes.Equal(data, realState) && !bytes.Equal(enc, data) {
			t.Fatal("a written state does not re-encode to itself")
		}
		again, err := core.NewSuiteFromState(w.Index, cfg.Start, snapBinWidth, enc)
		if err != nil {
			t.Fatalf("re-encoded state refused: %v", err)
		}
		if enc2, err := again.EncodeState(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("round trip is not stable (err %v)", err)
		}
	})
}

// TestScanStatsAccounting pins the scan.Stats the analysis entry points
// return — the fields the snapshot's refresh gate reads and
// run.figures.json's snapshot block records — over stores that grow: a
// cold Figure 4/5 scan, a snapshot hit with a delta, a pure hit, and a
// resident suite's first fold and a later Advance; ScanMemory, which
// returns no stats, must count the same samples in its report. A
// prefix is what the fold covered before its first block: nothing, for
// a fold that covered nothing yet.
func TestScanStatsAccounting(t *testing.T) {
	w := snapWorldGet(t)
	full := campaignPrefix(t, w, 26)
	n24 := len(campaignPrefix(t, w, 24))
	cfg := snapConfig(26)
	meta := cfg.Meta(snapSeed, w.Probes.Len(), w.Catalog.Len())
	ctx := context.Background()

	type stats struct {
		PrefixBlocks int
		PrefixBytes  int64
		BlocksTotal  int
		BlocksRead   int
		DataEnd      int64
		Samples      uint64
	}
	check := func(name string, st scan.Stats, want stats) {
		t.Helper()
		got := stats{st.PrefixBlocks, st.PrefixBytes, st.BlocksTotal, st.BlocksRead, st.DataEnd, st.Samples}
		if got != want {
			t.Errorf("%s: stats %+v, want %+v", name, got, want)
		}
	}
	// ends lists where each block of the store's samples file ends.
	ends := func(store *results.Store) []int64 {
		t.Helper()
		r, closer, err := colf.Open(store.SamplesPath())
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		var e []int64
		for _, b := range r.Blocks() {
			e = append(e, b.Off+b.Len)
		}
		return e
	}
	n := func(smps []results.Sample) uint64 { return uint64(len(smps)) }

	// Two rounds on 24 cross the refresh gate, so the delta scan
	// rewrites the snapshot and the next scan is a pure hit.
	store := buildStore(t, filepath.Join(t.TempDir(), "ds"), meta, full[:n24])
	sm := snap.NewMetrics(obs.NewRegistry())
	so := core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm, Passes: snapPasses}
	// scanSnap scans the store, whose report must count all stored
	// samples, prefix and delta alike.
	scanSnap := func(stored uint64) scan.Stats {
		t.Helper()
		rep, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, snapBinWidth, 2, nil, so)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Samples != stored {
			t.Errorf("report counts %d samples, the store holds %d", rep.Samples, stored)
		}
		return st
	}
	e0 := ends(store)
	check("cold", scanSnap(n(full[:n24])), stats{0, 0, len(e0), len(e0), e0[len(e0)-1], n(full[:n24])})
	appendSamples(t, store, full[n24:])
	e1 := ends(store)
	check("hit with delta", scanSnap(n(full)), stats{len(e0), e0[len(e0)-1], len(e1), len(e1) - len(e0), e1[len(e1)-1], n(full[n24:])})
	if sm.Writes.Value() != 2 {
		t.Fatalf("the delta scan did not rewrite the snapshot: %d writes", sm.Writes.Value())
	}
	check("pure hit", scanSnap(n(full)), stats{len(e1), e1[len(e1)-1], len(e1), 0, e1[len(e1)-1], 0})

	var mem results.Memory
	for _, s := range full {
		if err := mem.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := core.ScanMemory(&mem, w.Index, cfg.Start, snapBinWidth, snapPasses)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != n(full) {
		t.Errorf("ScanMemory reports %d samples, want %d", rep.Samples, n(full))
	}

	// The resident suite starts on an empty store, so its first fold is
	// an Advance too.
	live := buildStore(t, filepath.Join(t.TempDir(), "live"), meta, nil)
	hot, err := core.NewHotSuite(live, w.Index, cfg.Start, snapBinWidth, core.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(live.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	advance := func() scan.Stats {
		t.Helper()
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		covered, _ := hot.Covered()
		blocks, _, err := colf.Locate(f, fi.Size(), covered)
		if err != nil {
			t.Fatal(err)
		}
		st, err := hot.Advance(ctx, f, fi.Size(), blocks, scan.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	appendSamples(t, live, full[:n24])
	l0 := ends(live)
	check("resident first fold", advance(), stats{0, 0, len(l0), len(l0), l0[len(l0)-1], n(full[:n24])})
	appendSamples(t, live, full[n24:])
	l1 := ends(live)
	check("resident advance", advance(), stats{len(l0), l0[len(l0)-1], len(l1), len(l1) - len(l0), l1[len(l1)-1], n(full[n24:])})
	if got, want := hot.Samples(), n(full); got != want {
		t.Errorf("resident suite holds %d samples, want %d", got, want)
	}
}
