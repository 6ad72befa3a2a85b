package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/world"
)

// passesOf is the suite pass set the figures table gives fig.
func passesOf(fig string) core.PassSet {
	f, _ := figures.Lookup(fig)
	return f.Passes
}

// passScenario is one starting state of a dataset directory: how much
// of the campaign the store holds, and what the snapshot next to it
// looks like.
type passScenario struct {
	name string
	// store is the fraction of the campaign in the store; the snapshot,
	// when there is one, covers the first 80 %.
	store float64
	// spoil damages the snapshot the 80 % scan left, nil to keep it.
	spoil func(t *testing.T, path string)
	// writes is how many snapshot writes one figure run must make.
	writes uint64
}

var passScenarios = []passScenario{
	{name: "no delta", store: 0.80},
	{name: "delta below the gate", store: 0.82},
	{name: "delta above the gate", store: 1, writes: 1},
	{name: "missing snapshot", store: 0.82, writes: 1, spoil: func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}},
	{name: "corrupt snapshot", store: 0.82, writes: 1, spoil: func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{name: "pass-set mismatch", store: 0.82, writes: 1, spoil: func(t *testing.T, path string) {
		rebind(t, path, func(b *snap.Binding) { b.PassSet += "|other" }, nil)
	}},
}

// rebind rewrites the snapshot at path under the binding edit leaves,
// holding payload (nil keeps the record there), with every CRC valid.
func rebind(t *testing.T, path string, edit func(*snap.Binding), payload []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := snap.Validate(data, snap.Binding{}).Binding
	if payload == nil {
		p := snap.Validate(data, b)
		if len(p.Records) != 1 {
			t.Fatalf("%s holds %d records", path, len(p.Records))
		}
		payload = p.Records[0].Payload
	}
	edit(&b)
	if err := os.WriteFile(path, snap.Image(b, payload), 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendTo grows the store in place by one sink session, so the
// samples land in blocks of their own past the current data end.
func appendTo(t *testing.T, store *results.Store, smps []results.Sample) {
	t.Helper()
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	end := int64(colf.HeaderSize)
	if blocks := r.Blocks(); len(blocks) > 0 {
		end = blocks[len(blocks)-1].Off + blocks[len(blocks)-1].Len
	}
	closer.Close()
	sink, err := store.Resume(end)
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

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// snapBytes reads the directory's snapshot, nil when there is none.
func snapBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "samples.snap"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return data
}

// snapFigures and nearestFigures split the dataset figures by the rule
// samples.snap follows: Figures 4 and 5 read state sized by the world
// and resume from the file; Figures 6-8 read state sized by the samples,
// which is never persisted.
var (
	snapFigures    = []string{"4", "5"}
	nearestFigures = []string{"6", "7", "8"}
)

// snapStamp is a snapshot file's bytes and mtime; the zero value is "no
// file".
type snapStamp struct {
	data  []byte
	mtime time.Time
}

func stampOf(t *testing.T, dir string) snapStamp {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "samples.snap"))
	if os.IsNotExist(err) {
		return snapStamp{}
	}
	if err != nil {
		t.Fatal(err)
	}
	return snapStamp{snapBytes(t, dir), fi.ModTime()}
}

func (s snapStamp) equal(o snapStamp) bool {
	return bytes.Equal(s.data, o.data) && s.mtime.Equal(o.mtime)
}

// TestSelectedPassesMatchCold pins what a figure run does with the
// snapshot next to the store, whatever state that file is in. Every
// figure prints the CSV bytes of a cold scan, for every worker count.
// A Figure 4 or 5 run resumes from the file and leaves it untouched
// below the refresh gate; above it, or when the file is missing or
// unusable, it rewrites it once — to the bytes a cold whole-suite scan
// of the same store (what shears runs) writes. A Figure 6, 7 or 8 run
// never opens it: no snap_* counter moves and the file keeps its bytes
// and mtime, spoiled or not.
func TestSelectedPassesMatchCold(t *testing.T) {
	const seed, probes = 2, 200
	w, err := world.Build(world.Config{Seed: seed, Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	cfg.End = cfg.Start.Add(10 * 24 * time.Hour)
	var all []results.Sample
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, func(s results.Sample) error {
		all = append(all, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	meta := cfg.Meta(seed, w.Probes.Len(), w.Catalog.Len())
	cut := func(frac float64) int { return int(frac * float64(len(all))) }

	for _, sc := range passScenarios {
		t.Run(sc.name, func(t *testing.T) {
			// The template: the first 80 % in two sink sessions, a
			// whole-suite scan's snapshot over it, then the scenario's delta.
			tmpl := t.TempDir()
			store, sink, err := results.Create(tmpl, meta, results.FormatBinary)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			appendTo(t, store, all[:cut(0.4)])
			appendTo(t, store, all[cut(0.4):cut(0.8)])
			so := core.SnapshotOptions{Path: store.SnapshotPath()}
			if _, _, err := core.ScanStoreSnap(context.Background(), store, w.Index, cfg.Start, 7*24*time.Hour, 2, nil, so); err != nil {
				t.Fatal(err)
			}
			if sc.store > 0.8 {
				appendTo(t, store, all[cut(0.8):cut(sc.store)])
			}
			if sc.spoil != nil {
				sc.spoil(t, store.SnapshotPath())
			}
			before := stampOf(t, tmpl)

			// What a cold whole-suite scan of this store writes.
			coldDir := copyDir(t, tmpl)
			coldStore, err := results.Open(coldDir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := core.ScanStoreSnap(context.Background(), coldStore, w.Index, cfg.Start, 7*24*time.Hour, 1, nil,
				core.SnapshotOptions{Path: coldStore.SnapshotPath()}); err != nil {
				t.Fatal(err)
			}
			coldSnap := snapBytes(t, coldDir)

			for _, fig := range append(append([]string(nil), snapFigures...), nearestFigures...) {
				resumes := fig == "4" || fig == "5"
				opts := options{fig: fig, data: tmpl, probes: probes, seed: seed, workers: 1, snapMode: "off", csv: true}
				cold, err := render(opts, nil)
				if err != nil {
					t.Fatalf("fig %s cold: %v", fig, err)
				}
				if !stampOf(t, tmpl).equal(before) {
					t.Fatalf("fig %s: a -snapshot off run touched the snapshot", fig)
				}
				for _, workers := range []int{1, 2, 5} {
					dir := copyDir(t, tmpl)
					start := stampOf(t, dir)
					var log bytes.Buffer
					r := startRun(t, &log)
					sm := r.SnapMetrics()
					opts.data, opts.workers, opts.snapMode = dir, workers, "on"
					got, err := render(opts, r)
					if err != nil {
						t.Fatalf("fig %s workers=%d: %v", fig, workers, err)
					}
					if strings.Join(got, "\n") != strings.Join(cold, "\n") {
						t.Errorf("fig %s workers=%d: -snapshot on diverges from the cold scan", fig, workers)
					}
					after := stampOf(t, dir)
					if !resumes {
						if n := sm.Hits.Value() + sm.Misses.Value() + sm.Invalidations.Value() + sm.Writes.Value(); n != 0 {
							t.Errorf("fig %s workers=%d: a figure that cannot resume touched the snapshot machinery %d times:\n%s", fig, workers, n, log.String())
						}
						if !after.equal(start) {
							t.Errorf("fig %s workers=%d: samples.snap changed under a figure that never opens it", fig, workers)
						}
						continue
					}
					if got := sm.Writes.Value(); got != sc.writes {
						t.Errorf("fig %s workers=%d: snap_writes_total = %d, want %d", fig, workers, got, sc.writes)
					}
					if hit := strings.Contains(log.String(), "snapshot hit"); hit != (sc.spoil == nil) {
						t.Errorf("fig %s workers=%d: snapshot hit logged = %v on a snapshot spoiled = %v:\n%s", fig, workers, hit, sc.spoil != nil, log.String())
					}
					switch {
					case sc.writes == 0 && !after.equal(start):
						t.Errorf("fig %s workers=%d: a run below the gate touched samples.snap", fig, workers)
					case sc.writes == 1 && !bytes.Equal(after.data, coldSnap):
						t.Errorf("fig %s workers=%d: the rewritten samples.snap differs from a cold whole-suite scan's", fig, workers)
					}
				}
			}
		})
	}
}

// TestSnapFiguresResumeFromEveryPrefix grows a store block by block and
// keeps the snapshot a Figure 4 run leaves at every length. On the full
// store, a Figure 4 or 5 run resumed from any of them prints the cold
// scan's bytes at workers 1, 2 and 5, and the file it rewrites is the
// one a cold scan of the full store writes.
func TestSnapFiguresResumeFromEveryPrefix(t *testing.T) {
	const seed, probes, sessions = 2, 200, 6
	w, err := world.Build(world.Config{Seed: seed, Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	cfg.End = cfg.Start.Add(6 * 24 * time.Hour)
	var all []results.Sample
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, func(s results.Sample) error {
		all = append(all, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, sink, err := results.Create(dir, cfg.Meta(seed, w.Probes.Len(), w.Catalog.Len()), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	opts := options{fig: "4", data: dir, probes: probes, seed: seed, workers: 2, snapMode: "on", csv: true}
	var prefixSnaps [][]byte
	for k := 0; k < sessions; k++ {
		appendTo(t, store, all[k*len(all)/sessions:(k+1)*len(all)/sessions])
		if err := os.Remove(store.SnapshotPath()); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if _, err := render(opts, nil); err != nil {
			t.Fatal(err)
		}
		prefixSnaps = append(prefixSnaps, snapBytes(t, dir))
	}
	coldSnap := prefixSnaps[sessions-1] // written by a cold scan of the full store

	for _, fig := range snapFigures {
		opts.fig, opts.snapMode = fig, "off"
		cold, err := render(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.snapMode = "on"
		for k, prefix := range prefixSnaps {
			for _, workers := range []int{1, 2, 5} {
				if err := os.WriteFile(store.SnapshotPath(), prefix, 0o644); err != nil {
					t.Fatal(err)
				}
				r := startRun(t, io.Discard)
				sm := r.SnapMetrics()
				opts.workers = workers
				got, err := render(opts, r)
				if err != nil {
					t.Fatalf("fig %s from %d blocks, workers=%d: %v", fig, k+1, workers, err)
				}
				if strings.Join(got, "\n") != strings.Join(cold, "\n") {
					t.Errorf("fig %s from %d blocks, workers=%d: resumed output diverges from the cold scan", fig, k+1, workers)
				}
				if sm.Hits.Value() != 1 || sm.Invalidations.Value() != 0 {
					t.Errorf("fig %s from %d blocks, workers=%d: hit=%d invalid=%d, want a resume", fig, k+1, workers, sm.Hits.Value(), sm.Invalidations.Value())
				}
				wantWrites := uint64(1)
				if k == sessions-1 {
					wantWrites = 0 // the file already covers the whole store
				}
				if sm.Writes.Value() != wantWrites {
					t.Errorf("fig %s from %d blocks, workers=%d: %d snapshot writes, want %d", fig, k+1, workers, sm.Writes.Value(), wantWrites)
				}
				if !bytes.Equal(snapBytes(t, dir), coldSnap) {
					t.Errorf("fig %s from %d blocks, workers=%d: samples.snap differs from a cold scan's", fig, k+1, workers)
				}
			}
		}
	}
}

// TestNearestFiguresLeaveSnapshotAlone runs Figures 6, 7 and 8 with
// -snapshot on beside a valid samples.snap, none at all, and a file of
// the previous state version: each stays byte- and mtime-identical (or
// absent), and the manifest says the run was a cold scan of the
// figure's own pass, never a hit.
func TestNearestFiguresLeaveSnapshotAlone(t *testing.T) {
	dir, _ := buildDataset(t, 2, 200)
	snapPath := filepath.Join(dir, "samples.snap")
	states := []struct {
		name    string
		prepare func()
	}{
		{"absent", func() {}},
		{"present", func() {
			if err := run(options{fig: "5", data: dir, workers: 2, snapMode: "on", stdout: io.Discard, logDst: io.Discard}); err != nil {
				t.Fatal(err)
			}
		}},
		{"state version 3", func() {
			rebind(t, snapPath, func(b *snap.Binding) {
				b.PassSet = strings.Replace(b.PassSet, "suite-v5|", "suite-v3|", 1)
			}, bytes.Repeat([]byte{0x5a}, 1<<16))
		}},
	}
	for _, state := range states {
		state.prepare()
		before := stampOf(t, dir)
		if (state.name == "absent") != (before.data == nil) {
			t.Fatalf("%s: samples.snap holds %d bytes", state.name, len(before.data))
		}
		for _, fig := range nearestFigures {
			if err := run(options{fig: fig, data: dir, workers: 2, snapMode: "on", stdout: io.Discard, logDst: io.Discard}); err != nil {
				t.Fatalf("%s fig %s: %v", state.name, fig, err)
			}
			if !stampOf(t, dir).equal(before) {
				t.Errorf("%s: fig %s with -snapshot on touched samples.snap", state.name, fig)
			}
			m, err := obs.ReadRunManifest(filepath.Join(dir, manifestFile))
			if err != nil {
				t.Fatal(err)
			}
			if c := m.Snapshot; c == nil || c.PrefixBlocks != 0 || c.PrefixSamples != 0 || c.BlocksRead != c.BlocksTotal || c.Passes != passesOf(fig).String() {
				t.Errorf("%s: fig %s manifest coverage %+v, want a cold scan of pass %s", state.name, fig, c, passesOf(fig))
			}
			for _, s := range m.Stages {
				if strings.HasPrefix(s.Name, "snap") {
					t.Errorf("%s: fig %s ran stage %q", state.name, fig, s.Name)
				}
			}
		}
	}
}
