package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/world"
)

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
		h, payload, err := snap.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.PassSet += "|other"
		if err := snap.WriteFile(path, h, payload); err != nil {
			t.Fatal(err)
		}
	}},
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

// TestSelectedPassesMatchCold pins the pass-selective resume: whatever
// state the snapshot is in, a figure run that works only its own pass
// prints the CSV bytes of a cold scan and of a resume that works the
// whole suite, for every worker count — and it leaves the same
// samples.snap behind as the whole-suite run: untouched below the
// refresh gate, rewritten once (from the whole suite) above it.
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
			// whole-suite snapshot over it, then the scenario's delta.
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
			so := core.SnapshotOptions{Path: store.SnapshotPath(), RefreshFactor: core.DefaultRefreshFactor}
			if _, _, err := core.ScanStoreSnap(context.Background(), store, w.Index, cfg.Start, 7*24*time.Hour, 2, nil, so); err != nil {
				t.Fatal(err)
			}
			if sc.store > 0.8 {
				appendTo(t, store, all[cut(0.8):cut(sc.store)])
			}
			if sc.spoil != nil {
				sc.spoil(t, store.SnapshotPath())
			}
			before := snapBytes(t, tmpl)

			for _, fig := range []string{"4", "5", "6", "7", "8"} {
				opts := options{fig: fig, data: tmpl, probes: probes, seed: seed, workers: 1, snapMode: "off", csv: true}
				cold, err := render(opts, nil)
				if err != nil {
					t.Fatalf("fig %s cold: %v", fig, err)
				}
				if !bytes.Equal(snapBytes(t, tmpl), before) {
					t.Fatalf("fig %s: a -snapshot off run touched the snapshot", fig)
				}
				for _, workers := range []int{1, 2, 4, 7} {
					// The whole suite, as every resume ran before passes could
					// be selected.
					fullDir := copyDir(t, tmpl)
					fullStore, err := results.Open(fullDir)
					if err != nil {
						t.Fatal(err)
					}
					fullSo := so
					fullSo.Path = fullStore.SnapshotPath()
					fullRep, err := (&dataset{store: fullStore, start: cfg.Start, workers: workers, snap: fullSo}).report(context.Background(), w.Index, 0)
					if err != nil {
						t.Fatalf("fig %s workers=%d whole suite: %v", fig, workers, err)
					}
					full, err := figureLines(fig, true, fullRep)
					if err != nil {
						t.Fatalf("fig %s workers=%d whole suite: %v", fig, workers, err)
					}

					// The figure's own pass, as the command selects it.
					selDir := copyDir(t, tmpl)
					sm := snap.NewMetrics(obs.NewRegistry())
					var log bytes.Buffer
					opts.data, opts.workers, opts.snapMode = selDir, workers, "on"
					sel, err := render(opts, &runEnv{snapMetrics: sm, log: obs.NewLogger(&log)})
					if err != nil {
						t.Fatalf("fig %s workers=%d selected: %v", fig, workers, err)
					}

					want := strings.Join(cold, "\n")
					if strings.Join(full, "\n") != want {
						t.Errorf("fig %s workers=%d: whole-suite resume diverges from the cold scan", fig, workers)
					}
					if strings.Join(sel, "\n") != want {
						t.Errorf("fig %s workers=%d: selected-pass resume diverges from the cold scan", fig, workers)
					}
					if got := sm.Writes.Value(); got != sc.writes {
						t.Errorf("fig %s workers=%d: snap_writes_total = %d, want %d", fig, workers, got, sc.writes)
					}
					// A hit that leaves the file alone works the one pass; one
					// that rewrites it works all six.
					if sc.spoil == nil {
						worked := "passes=all"
						if sc.writes == 0 {
							worked = "passes=" + figurePasses(fig).String()
						}
						if !strings.Contains(log.String(), worked) {
							t.Errorf("fig %s workers=%d: snapshot hit does not report %s:\n%s", fig, workers, worked, log.String())
						}
					}
					after := snapBytes(t, selDir)
					if !bytes.Equal(after, snapBytes(t, fullDir)) {
						t.Errorf("fig %s workers=%d: selected-pass run left a different samples.snap than the whole-suite run", fig, workers)
					}
					if sc.writes == 0 && !bytes.Equal(after, before) {
						t.Errorf("fig %s workers=%d: a run below the gate touched samples.snap", fig, workers)
					}
				}
			}
		})
	}
}
