// Package repro's micro-benchmarks regenerate every figure of the paper
// (one benchmark per figure), plus throughput benchmarks for the pipeline
// stages: campaign generation, latency-model sampling, and live pings.
//
// Run with: go test -bench=. -benchmem
//
// The repository's benchmark is the pipeline harness under bench/
// (BENCHMARK.json); these stay for what its 46 per-layer metrics do
// not measure:
//
//   - BenchmarkFigure1 .. Figure3bProbes, Figure8Feasibility,
//     AnalysisThresholds, WhereIsTheDelay, BandwidthJustify, WhatIf,
//     AblationBackbone: the paper's dataset-independent analyses
//     (zeitgeist model, catalog, census, feasibility, delay attribution,
//     backhaul, counterfactual). No per-layer metric touches these
//     packages; figures.render_ms times only Figures 4-7 rendering from
//     an already-computed suite report.
//   - BenchmarkFigure4Proximity .. Figure7LastMile, ProviderComparison:
//     each analysis alone — core.ScanMemory restricted to the one pass,
//     scanning an in-memory campaign's colf image, then the figure's
//     lines (Figure 7's report carries the KS test). bench/ only ever
//     runs the six passes fused through the block scanner
//     (scan.cold_samples_per_s_w1/_w2) and times their reports
//     together (core.suite_report_ms), never one analysis by itself.
//   - BenchmarkCampaignGeneration, CampaignParallel: the engine at 1..8
//     workers with allocation counts; engine.generate_samples_per_s is
//     one worker count (the harness pins GOMAXPROCS=2) and no B/op.
//   - BenchmarkPathRTT: netem.path_rtt_ns measures the same call over a
//     fixed leg mix; this one reports allocs/op, which that does not.
//   - BenchmarkLivePing: the live measurement plane (virtual network
//     echo). bench/ has no workload or layer on it — its campaigns are
//     synthesized, never pinged.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/atlas"
	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/figures"
	"repro/internal/netem"
	"repro/internal/results"
	"repro/internal/whatif"
	"repro/internal/world"
)

// benchEnv is the shared world + campaign dataset, built once.
type benchEnv struct {
	w   *world.World
	mem *results.Memory
	cfg atlas.CampaignConfig
}

var (
	envOnce sync.Once
	env     *benchEnv
	envErr  error
)

func getEnv(b *testing.B) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		var w *world.World
		w, envErr = world.Build(world.Config{Seed: 1, Probes: 400})
		if envErr != nil {
			return
		}
		cfg := atlas.TestCampaign()
		var mem results.Memory
		if _, envErr = w.Platform.RunCampaign(context.Background(), cfg, mem.Add); envErr != nil {
			return
		}
		env = &benchEnv{w: w, mem: &mem, cfg: cfg}
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// scanPasses folds the shared campaign through the named suite passes.
func scanPasses(b *testing.B, e *benchEnv, passes core.PassSet) *core.SuiteReport {
	b.Helper()
	rep, err := core.ScanMemory(e.mem, e.w.Index, e.cfg.Start, 7*24*time.Hour, passes)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkFigure1 computes the zeitgeist series (Figure 1) from its
// publication and search-interest models.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := figures.Figure1(); len(s.Points) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFigure2Quadrants classifies the application catalog (Figure 2).
func BenchmarkFigure2Quadrants(b *testing.B) {
	catalog := apps.Paper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Figure2(catalog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3aRegions summarizes the cloud deployment (Figure 3a).
func BenchmarkFigure3aRegions(b *testing.B) {
	e := getEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Figure3a(e.w.Catalog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3bProbes summarizes the probe census (Figure 3b).
func BenchmarkFigure3bProbes(b *testing.B) {
	e := getEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Figure3b(e.w.Probes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Proximity extracts per-country minimum latencies from
// the campaign dataset (Figure 4).
func BenchmarkFigure4Proximity(b *testing.B) {
	e := getEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figures.Figure4Lines(scanPasses(b, e, core.PassProximity).Proximity)
	}
}

// BenchmarkFigure5MinCDF builds the per-probe minimum-RTT CDFs (Figure 5).
func BenchmarkFigure5MinCDF(b *testing.B) {
	e := getEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.CDFLines(scanPasses(b, e, core.PassMinRTT).MinRTT); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6FullCDF builds the closest-datacenter full-distribution
// CDFs (Figure 6).
func BenchmarkFigure6FullCDF(b *testing.B) {
	e := getEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.CDFLines(scanPasses(b, e, core.PassFullDist).FullDist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7LastMile runs the wired-vs-wireless comparison (Figure 7).
func BenchmarkFigure7LastMile(b *testing.B) {
	e := getEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Figure7Lines(scanPasses(b, e, core.PassLastMile).LastMile); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8Feasibility derives the feasibility zone and evaluates
// the catalog (Figure 8).
func BenchmarkFigure8Feasibility(b *testing.B) {
	e := getEnv(b)
	rep7 := scanPasses(b, e, core.PassLastMile).LastMile
	catalog := apps.Paper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := figures.Figure8(rep7, catalog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignGeneration measures dataset synthesis throughput
// (samples per op reported via b.ReportMetric).
func BenchmarkCampaignGeneration(b *testing.B) {
	e := getEnv(b)
	cfg := e.cfg
	cfg.End = cfg.Start.Add(24 * time.Hour) // one day per iteration
	ctx := context.Background()
	b.ReportAllocs()
	var total uint64
	for i := 0; i < b.N; i++ {
		n, err := e.w.Platform.RunCampaign(ctx, cfg, func(results.Sample) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "samples/op")
}

// BenchmarkCampaignParallel sweeps the execution engine's worker count
// over the TestCampaign workload. The merged dataset is byte-identical
// across the sweep (asserted by TestEngineByteIdenticalToSerial); this
// benchmark quantifies the throughput side of that guarantee.
func BenchmarkCampaignParallel(b *testing.B) {
	e := getEnv(b)
	cfg := e.cfg // 30 days, ~190k samples on the 400-probe bench world
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var total uint64
			for i := 0; i < b.N; i++ {
				n, err := e.w.Platform.RunCampaignOpts(ctx, cfg,
					atlas.CampaignOptions{Workers: workers},
					func(results.Sample) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				total += n
			}
			b.ReportMetric(float64(total)/float64(b.N), "samples/op")
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkPathRTT measures raw latency-model sampling speed.
func BenchmarkPathRTT(b *testing.B) {
	e := getEnv(b)
	pr := e.w.Probes.Public()[0]
	r := e.w.Platform.Targets(pr)[0]
	path, err := e.w.Platform.Path(pr, r)
	if err != nil {
		b.Fatal(err)
	}
	at := e.cfg.Start
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		path.RTT(at.Add(time.Duration(i) * time.Second))
	}
}

// BenchmarkLivePing measures a full echo round trip through the virtual
// network (pinger -> netsim -> responder -> netsim -> pinger).
func BenchmarkLivePing(b *testing.B) {
	e := getEnv(b)
	ledger := atlas.NewLedger()
	if err := ledger.Grant("bench", int64(b.N)+1_000_000); err != nil {
		b.Fatal(err)
	}
	svc, err := atlas.NewLiveService(e.w.Platform, ledger, 0.0001)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	pr := e.w.Probes.Public()[0]
	target := e.w.Platform.Targets(pr)[0].Addr()
	ctx := context.Background()
	spec := atlas.MeasurementSpec{Target: target, ProbeIDs: []int{pr.ID}, Count: 1, Timeout: 10 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := svc.Create("bench", spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Wait(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackbone quantifies the private-vs-public backbone
// design choice in the latency model: the same long-haul path sampled with
// and without a private backbone (DESIGN.md §5 calls this out).
func BenchmarkAblationBackbone(b *testing.B) {
	model, err := netem.NewModel(netem.DefaultConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	e := getEnv(b)
	pr := e.w.Probes.Public()[0]
	site := pr.Site()
	for _, private := range []bool{true, false} {
		name := "public"
		if private {
			name = "private"
		}
		b.Run(name, func(b *testing.B) {
			path, err := model.Path(site, netem.Target{
				ID: "bench-" + name, Location: e.w.Catalog.All()[0].Location,
				Continent: e.w.Catalog.Continent(e.w.Catalog.All()[0]), Private: private,
			})
			if err != nil {
				b.Fatal(err)
			}
			sum := 0.0
			for i := 0; i < b.N; i++ {
				ms, lost := path.RTT(e.cfg.Start.Add(time.Duration(i) * time.Minute))
				if !lost {
					sum += ms
				}
			}
			if b.N > 0 {
				b.ReportMetric(sum/float64(b.N), "rtt-ms")
			}
		})
	}
}

// BenchmarkAnalysisThresholds measures threshold classification over the
// whole dataset (the §5 discussion numbers).
func BenchmarkAnalysisThresholds(b *testing.B) {
	e := getEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		err := e.mem.ForEach(func(s results.Sample) error {
			if !s.Lost && s.RTTms <= core.PLms {
				n++
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhereIsTheDelay runs the §4.3 delay attribution over the world.
func BenchmarkWhereIsTheDelay(b *testing.B) {
	e := getEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := delay.WhereIsTheDelay(e.w.Platform); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProviderComparison aggregates the dataset per provider (§4.1
// backbone claim).
func BenchmarkProviderComparison(b *testing.B) {
	e := getEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scanPasses(b, e, core.PassProvider)
	}
}

// BenchmarkBandwidthJustify evaluates the catalog's backhaul demand (§5's
// 1 GB/entity threshold).
func BenchmarkBandwidthJustify(b *testing.B) {
	catalog := apps.Paper()
	ref := bandwidth.Metro()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bandwidth.Justify(catalog, ref, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIf runs the baseline-vs-5G counterfactual pair on a short
// campaign (§5 discussion).
func BenchmarkWhatIf(b *testing.B) {
	campaign := atlas.TestCampaign()
	campaign.End = campaign.Start.Add(7 * 24 * time.Hour)
	cfg := whatif.Config{Seed: 1, Probes: 250, Campaign: campaign}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := whatif.Run(ctx, cfg, whatif.Baseline(), whatif.FiveG()); err != nil {
			b.Fatal(err)
		}
	}
}
