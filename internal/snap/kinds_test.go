package snap_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/tix"
	"repro/internal/world"
)

// fileKind is one of the three files written in the shared format, with
// its real loader. load is handed the bytes of a damaged copy of the
// valid file want and checks that what the owner made of them is one of
// the outcomes the format allows.
type fileKind struct {
	name string
	want []byte
	load func(t *testing.T, data []byte)
}

// TestDamagedFilesNeverYieldUnwrittenRecords takes a small valid file of
// each kind, cuts it at every byte offset and, separately, flips every
// byte. Whatever the damage, the loader yields a prefix of the records
// written, or resets, invalidates or fails — it never yields a record
// that was not written.
func TestDamagedFilesNeverYieldUnwrittenRecords(t *testing.T) {
	for _, k := range []fileKind{checkpointKind(t), tixKind(t), snapshotKind(t)} {
		t.Run(k.name, func(t *testing.T) {
			for n := 0; n < len(k.want); n++ {
				k.load(t, k.want[:n])
			}
			for i := range k.want {
				mut := append([]byte(nil), k.want...)
				mut[i] ^= 0x40
				k.load(t, mut)
			}
			if t.Failed() {
				return
			}
			k.load(t, k.want) // and the undamaged file still loads
		})
	}
}

// checkpointKind: LoadCheckpoint returns the checkpoint Save wrote, or an
// error naming the path.
func checkpointKind(t *testing.T) fileKind {
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	cp := engine.Checkpoint{
		Version: engine.CheckpointVersion, Fingerprint: "fp", Round: 3,
		Samples: 96, SinkOffset: 4096,
	}
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fileKind{name: "checkpoint", want: want, load: func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := engine.LoadCheckpoint(path)
		switch {
		case bytes.Equal(data, want):
			if err != nil || !reflect.DeepEqual(*got, cp) {
				t.Fatalf("intact checkpoint loaded as %+v, %v", got, err)
			}
		case err == nil:
			t.Fatalf("a damaged checkpoint loaded as %+v", got)
		case !strings.Contains(err.Error(), path):
			t.Fatalf("damaged checkpoint error does not name the path: %v", err)
		}
	}}
}

// europe resolves every probe to one continent, which keeps each node's
// curve to a single row and the file small.
type europe struct{}

func (europe) ContinentTable() []geo.Continent {
	return []geo.Continent{geo.ContinentUnknown, geo.Europe, geo.Europe}
}

// tixKind: Open leaves the file a prefix of the written one that ends on
// a record boundary, holding as many nodes as that prefix has records,
// and Extend then grows it back to the uninterrupted file byte for byte.
func tixKind(t *testing.T) fileKind {
	dir := t.TempDir()
	start := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	meta := results.Meta{Seed: 1, Start: start, End: start.Add(24 * time.Hour), IntervalHours: 1, Probes: 2, Regions: 1}
	store, sink, err := results.Create(dir, meta, results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		s := results.Sample{ProbeID: 1 + i%2, Region: "P/r", Time: start.Add(time.Duration(i) * time.Hour), RTTms: float64(5 + i), Lost: i%7 == 3}
		if err := sink.Write(s); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	blocks := append([]colf.BlockInfo(nil), r.Blocks()...)
	closer.Close()
	sf, err := os.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sf.Close() })
	b := tix.Binding{PassSet: tix.PassSetCDF, Index: "index", Meta: "meta"}
	open := func(t *testing.T) *tix.Index {
		ix, err := tix.Open(store.TixPath(), b, blocks, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix := open(t)
	if err := ix.Extend(sf, blocks, europe{}); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	want, err := os.ReadFile(store.TixPath())
	if err != nil {
		t.Fatal(err)
	}
	// The record boundaries of want, each with the records before it.
	recordsBefore := map[int]int{len(snap.Image(b)): 0}
	for i, rec := range snap.Validate(want, b).Records {
		recordsBefore[int(rec.Off)+rec.Len()] = i + 1
	}
	if len(recordsBefore) < 3 {
		t.Fatalf("index holds %d records, want a few", len(recordsBefore)-1)
	}
	return fileKind{name: "tix", want: want, load: func(t *testing.T, data []byte) {
		if err := os.WriteFile(store.TixPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix := open(t)
		defer ix.Close()
		kept, err := os.ReadFile(store.TixPath())
		if err != nil {
			t.Fatal(err)
		}
		records, boundary := recordsBefore[len(kept)]
		if !boundary || !bytes.HasPrefix(want, kept) || ix.Nodes() != records {
			t.Fatalf("open kept %d bytes and %d nodes: not the first records of the written file", len(kept), ix.Nodes())
		}
		if err := ix.Extend(sf, blocks, europe{}); err != nil {
			t.Fatal(err)
		}
		if again, err := os.ReadFile(store.TixPath()); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("re-extended index differs from the uninterrupted one (err %v)", err)
		}
	}}
}

// snapshotKind: a Figure 4/5 scan beside the damaged snapshot resumes
// from it only when it is the written file; otherwise it invalidates it,
// scans cold, prints the same figures and writes the file back.
func snapshotKind(t *testing.T) fileKind {
	w, err := world.Build(world.Config{Seed: 5, Probes: 200})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	cfg := atlas.CampaignConfig{Start: start, End: start.Add(6 * time.Hour), Interval: 3 * time.Hour, TargetsPerRound: 1, Participation: 0.1, PingsPerTarget: 1}
	store, sink, err := results.Create(t.TempDir(), cfg.Meta(5, w.Probes.Len(), w.Catalog.Len()), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, sink.Write); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	scanLines := func(t *testing.T, sm *snap.Metrics) string {
		so := core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm, Passes: core.PassProximity | core.PassMinRTT}
		rep, _, err := core.ScanStoreSnap(context.Background(), store, w.Index, start, 7*24*time.Hour, 1, nil, so)
		if err != nil {
			t.Fatal(err)
		}
		lines5, err := figures.CDFLines(rep.MinRTT)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(append(figures.Figure4Lines(rep.Proximity), lines5...), "\n")
	}
	cold := scanLines(t, nil)
	want, err := os.ReadFile(store.SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	return fileKind{name: "snapshot", want: want, load: func(t *testing.T, data []byte) {
		if err := os.WriteFile(store.SnapshotPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sm := snap.NewMetrics(obs.NewRegistry())
		if scanLines(t, sm) != cold {
			t.Fatal("figures beside a damaged snapshot differ from a cold scan's")
		}
		intact := bytes.Equal(data, want)
		hit, invalidated := sm.Hits.Value() == 1, sm.Invalidations.Value() == 1
		if hit != intact || invalidated == intact {
			t.Fatalf("hit=%d invalidated=%d for a snapshot that is intact=%v", sm.Hits.Value(), sm.Invalidations.Value(), intact)
		}
		if again, err := os.ReadFile(store.SnapshotPath()); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("the snapshot left behind is not the written one (err %v)", err)
		}
	}}
}
