package core_test

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/snap"
)

// BenchmarkIncrementalAppend measures re-analysis after one 3-hour round
// is appended to the stored 30-day binary campaign: a cold full rescan
// versus a snapshot-resumed Figure 4/5 scan that decodes only the
// appended blocks.
// The resumed path must stay a strict delta scan — the benchmark fails
// if it decodes more than a tenth of the store's blocks. bench/'s
// snap.resume_ms times one such resume inside a larger composition;
// this keeps the cold and resumed scans side by side on one store, with
// allocation counts, which no per-layer metric reports.
func BenchmarkIncrementalAppend(b *testing.B) {
	src, w, cfg := fileDataset(b)
	ctx := context.Background()

	// Work on a copy: appending must not pollute the shared fixture.
	dir := b.TempDir()
	for _, name := range []string{"meta.json", "samples.bin"} {
		data, err := os.ReadFile(filepath.Join(filepath.Dir(src.SamplesPath()), name))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	store, err := results.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	snapPath := store.SnapshotPath()

	// Snapshot the 30-day prefix, then append one more round past the
	// campaign window.
	sm := snap.NewMetrics(obs.NewRegistry())
	_, seedSt, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, 7*24*time.Hour, 0, nil,
		core.SnapshotOptions{Path: snapPath, Metrics: sm})
	if err != nil {
		b.Fatal(err)
	}
	pristine, err := os.ReadFile(snapPath)
	if err != nil {
		b.Fatal(err)
	}
	extraCfg := cfg
	extraCfg.Start, extraCfg.End = cfg.End, cfg.End.Add(cfg.Interval)
	var extra []results.Sample
	if _, err := w.Platform.RunCampaign(ctx, extraCfg, func(s results.Sample) error {
		extra = append(extra, s)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	appendSamples(b, store, extra)
	total := seedSt.Samples + uint64(len(extra))

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, st, err := core.ScanStore(ctx, store, w.Index, cfg.Start, 7*24*time.Hour, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			if st.Samples != total {
				b.Fatalf("cold scan saw %d samples, want %d", st.Samples, total)
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	})

	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := os.WriteFile(snapPath, pristine, 0o644); err != nil {
				b.Fatal(err)
			}
			sm := snap.NewMetrics(obs.NewRegistry())
			b.StartTimer()
			_, st, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, 7*24*time.Hour, 0, nil,
				core.SnapshotOptions{Path: snapPath, Metrics: sm, Passes: core.PassProximity | core.PassMinRTT})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if sm.Hits.Value() != 1 || sm.Invalidations.Value() != 0 {
				b.Fatalf("resumed scan counters: hit=%d invalid=%d", sm.Hits.Value(), sm.Invalidations.Value())
			}
			// One appended round sits far below the refresh gate, so the
			// snapshot rewrite is deferred to a later, larger delta.
			if sm.Writes.Value() != 0 {
				b.Fatalf("resumed scan rewrote the snapshot below the refresh gate")
			}
			if st.BlocksRead != st.BlocksTotal-st.PrefixBlocks {
				b.Fatalf("resumed scan decoded %d blocks, delta is %d", st.BlocksRead, st.BlocksTotal-st.PrefixBlocks)
			}
			if 10*st.BlocksRead > st.BlocksTotal {
				b.Fatalf("resumed scan decoded %d of %d blocks; not a delta scan", st.BlocksRead, st.BlocksTotal)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	})
}

// BenchmarkAllFiguresFusedBinary measures a full figure regeneration:
// one fused parallel scan feeding every pass's ObserveBlock kernel
// across GOMAXPROCS workers. bench/'s scan.cold_samples_per_s_w1/_w2
// time the same scan at one and two workers; this one adds B/op and
// allocs/op at the host's full width.
func BenchmarkAllFiguresFusedBinary(b *testing.B) {
	store, w, cfg := fileDataset(b)
	info, err := os.Stat(store.SamplesPath())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	b.ResetTimer()
	var samples uint64
	for i := 0; i < b.N; i++ {
		_, st, err := core.ScanStore(context.Background(), store, w.Index,
			cfg.Start, 7*24*time.Hour, runtime.GOMAXPROCS(0), nil)
		if err != nil {
			b.Fatal(err)
		}
		samples = st.Samples
	}
	b.StopTimer()
	b.ReportMetric(float64(samples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}
