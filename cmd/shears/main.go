// Command shears is the end-to-end reproduction driver: it builds the
// world (probes, cloud regions, latency model), runs the measurement
// campaign, writes the dataset to disk, and regenerates every figure of
// the paper from it.
//
// Usage:
//
//	shears -out ./dataset            # test-scale campaign (default)
//	shears -out ./dataset -full      # paper-scale: 9 months, ~3.2M samples
//	shears -out ./dataset -days 60   # custom window
//	shears -out ./dataset -workers 8 # shard the campaign across 8 workers
//	shears -out ./dataset -resume    # continue an interrupted run
//	shears -remote http://host:8080  # print figures from a live atlasd -serve-data API
//
// The campaign runs on the parallel execution engine (internal/engine):
// -workers shards the probe population across goroutines while keeping
// the output byte-identical to a serial run, and the engine checkpoints
// its progress into <out>/checkpoint.json every -checkpoint-every rounds
// so -resume continues an interrupted run from the last watermark
// instead of restarting.
//
// Observability: the driver emits structured leveled logs (-log-format
// text|json, -log-level), prints periodic progress lines (samples/sec,
// ETA, per-continent tallies) every -progress interval while the campaign
// runs, and -trace out.json dumps the span tree of the whole run
// (world build -> campaign rounds -> result write -> figure generation)
// as Chrome trace-event JSON, loadable in Perfetto or chrome://tracing
// and summarized by `trace -summary`.
// -status-addr serves live run state over HTTP while the run executes:
// GET /metrics (Prometheus text), GET /debug/events (flight-recorder
// dump of recent log events), and GET /api/v1/progress (campaign round
// watermarks, queue depths, snapshot and scan counters, ETA). Every run
// also writes <out>/run.json — a manifest with the run ID, build
// version, flags, world fingerprint, per-stage durations and
// throughput. -cpuprofile/-memprofile write pprof profiles of the run.
//
// Analysis snapshots: the post-campaign figure scan writes
// <out>/samples.snap — the Figure 4 and 5 state (per-country and
// per-probe minima, kilobytes) over the whole finished store, written
// once per run — so a later figures -fig 4|5 over the (possibly grown)
// dataset decodes only blocks appended since. A failed write is a
// warning, not a failed run. The campaign itself never touches the
// file: an interrupted run leaves no snapshot and its -resume pays one
// cold scan at the end. -snapshot off disables it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/atlas"
	"repro/internal/bandwidth"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/snap"
	"repro/internal/tix"
	"repro/internal/world"
)

// options bundles the driver's knobs (one field per flag).
type options struct {
	out             string
	probes          int
	seed            uint64
	full            bool
	days            int
	quiet           bool
	figDir          string
	tracePath       string
	progressEvery   time.Duration
	workers         int // <= 0 means GOMAXPROCS
	resume          bool
	checkpointEvery int    // rounds; 0 disables checkpointing
	snapshot        string // analysis snapshot mode: on, off
	tix             string // temporal index mode: on, off
	cpuProfile      string
	memProfile      string
	statusAddr      string // live status HTTP listener; empty disables
	remote          string // base URL of a live atlasd analysis API; fetch figures instead of scanning
	logFormat       string // structured log encoding: text or json
	logLevel        string // minimum log level: debug, info, warn, error

	// Test hooks (unexported, zero in production).
	stdout      io.Writer                       // figure output; nil means os.Stdout
	logDst      io.Writer                       // structured log destination; nil means stderr
	statusReady func(addr string)               // called with the bound status address
	onRound     func(round int, samples uint64) // observes each merged campaign round
	ctx         context.Context                 // campaign context; nil means Background
	reg         *obs.Registry                   // metrics registry; nil means a fresh one
}

// parseOnOff resolves an on|off mode flag; empty means on.
func parseOnOff(flagName, mode string) (bool, error) {
	switch mode {
	case "on", "":
		return true, nil
	case "off":
		return false, nil
	}
	return false, fmt.Errorf("invalid -%s %q (want on or off)", flagName, mode)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("shears: ")
	var o options
	flag.StringVar(&o.out, "out", "dataset", "output directory for the campaign dataset")
	flag.IntVar(&o.probes, "probes", 3300, "probe census size")
	flag.Uint64Var(&o.seed, "seed", 1, "world and campaign seed")
	flag.BoolVar(&o.full, "full", false, "run the paper-scale nine-month campaign")
	flag.IntVar(&o.days, "days", 0, "override campaign length in days (0 = config default)")
	flag.BoolVar(&o.quiet, "quiet", false, "skip figure output; only build the dataset")
	flag.StringVar(&o.figDir, "figdir", "", "also write figure artifacts (CSV + SVG) into this directory")
	flag.StringVar(&o.tracePath, "trace", "", "write the run's span tree to this file as Chrome trace-event JSON (Perfetto, chrome://tracing, trace -summary)")
	flag.DurationVar(&o.progressEvery, "progress", 5*time.Second, "campaign progress reporting interval (0 disables)")
	flag.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "campaign worker count (output is identical for any value)")
	flag.BoolVar(&o.resume, "resume", false, "resume an interrupted campaign from <out>/checkpoint.json")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", engine.DefaultCheckpointEvery, "rounds between checkpoints (0 disables checkpointing)")
	flag.StringVar(&o.snapshot, "snapshot", "on", "analysis snapshot (samples.snap, written once by the post-campaign figure scan): on or off")
	flag.StringVar(&o.tix, "tix", "on", "temporal aggregate index (samples.tix): on or off")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an end-of-run heap profile to this file")
	flag.StringVar(&o.statusAddr, "status-addr", "", "serve live run status (/metrics, /debug/events, /api/v1/progress) on this address")
	flag.StringVar(&o.remote, "remote", "", "fetch figures 4-7 from a running atlasd -serve-data API at this base URL instead of running a campaign")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log encoding: text (logfmt) or json")
	flag.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.Parse()
	if o.remote != "" {
		if err := runRemote(o.remote, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

// checkpointFile is the engine checkpoint's name inside the dataset dir.
const checkpointFile = "checkpoint.json"

// manifestFile is the run manifest's name inside the dataset dir.
const manifestFile = "run.json"

// flightRecorderSize is how many recent log events /debug/events retains.
const flightRecorderSize = 512

func run(o options) (err error) {
	start := time.Now()
	// Reject a bad mode before any campaign work.
	snapEnabled, err := parseOnOff("snapshot", o.snapshot)
	if err != nil {
		return err
	}
	tixEnabled, err := parseOnOff("tix", o.tix)
	if err != nil {
		return err
	}
	level, err := obs.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	logFormat, err := obs.ParseLogFormat(o.logFormat)
	if err != nil {
		return err
	}
	logDst := o.logDst
	if logDst == nil {
		logDst = os.Stderr
	}
	rec := obs.NewRecorder(flightRecorderSize)
	logger := obs.NewLogger(logDst,
		obs.WithLogFormat(logFormat), obs.WithLogLevel(level), obs.WithRecorder(rec),
	).With("shears")
	if o.cpuProfile != "" {
		stop, perr := obs.StartCPUProfile(o.cpuProfile)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); serr != nil && err == nil {
				err = serr
			}
		}()
	}
	if o.memProfile != "" {
		defer func() {
			if perr := obs.WriteHeapProfile(o.memProfile); perr != nil && err == nil {
				err = perr
			}
		}()
	}
	reg := o.reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := atlas.NewMetrics(reg)
	engMetrics := engine.NewMetrics(reg)
	snapMetrics := snap.NewMetrics(reg)
	scanMetrics := scan.NewMetrics(reg)
	manifest := obs.NewRunManifest("shears", start)
	manifest.Flags = obs.FlagsFromSet(flag.CommandLine)
	root := obs.NewTrace("shears.run")
	root.SetAttr("seed", o.seed)
	root.SetAttr("probes", o.probes)
	defer func() {
		root.End()
		dump := root.Dump()
		if o.tracePath != "" {
			if werr := writeTrace(o.tracePath, root, logger); werr != nil && err == nil {
				err = werr
			}
		}
		for _, line := range obs.FormatStageTable(obs.StageTotals(dump), time.Since(start)) {
			fmt.Fprintln(logDst, line)
		}
		// The manifest lands next to the dataset; skip it when the run died
		// before the output directory existed.
		if _, serr := os.Stat(o.out); serr == nil {
			manifest.Finish(time.Now())
			manifest.SetStagesFromDump(dump)
			manifest.PeakQueueDepth = engMetrics.QueueDepthPeak.Value()
			data, werr := manifest.JSON()
			if werr == nil {
				werr = snap.ReplaceFile(filepath.Join(o.out, manifestFile), data)
			}
			if werr != nil && err == nil {
				err = werr
			}
		}
	}()

	buildSpan := root.Child("world.build")
	w, buildErr := world.Build(world.Config{Seed: o.seed, Probes: o.probes})
	buildSpan.End()
	if buildErr != nil {
		return buildErr
	}
	w.Platform.Metrics = m
	cfg := atlas.TestCampaign()
	if o.full {
		cfg = atlas.PaperCampaign()
	}
	if o.days > 0 {
		cfg.End = cfg.Start.Add(time.Duration(o.days) * 24 * time.Hour)
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	manifest.Workers = workers
	logger.Info("world built",
		"probes", w.Probes.Len(), "countries", len(w.Probes.Countries()),
		"regions", w.Catalog.Len(),
		"campaign_start", cfg.Start.Format("2006-01-02"),
		"campaign_end", cfg.End.Format("2006-01-02"), "workers", workers)

	// Live status: /metrics, /debug/events and /api/v1/progress serve the
	// run's state while it executes.
	if o.statusAddr != "" {
		ln, lerr := net.Listen("tcp", o.statusAddr)
		if lerr != nil {
			return lerr
		}
		srv := &http.Server{Handler: obs.NewStatusMux(reg, rec, progressSnapshot(manifest, start, m, engMetrics, snapMetrics, scanMetrics, cfg.Rounds()))}
		go srv.Serve(ln)
		defer srv.Close()
		logger.Info("status server listening", "addr", ln.Addr().String())
		if o.statusReady != nil {
			o.statusReady(ln.Addr().String())
		}
	}

	// Open the sink: a fresh dataset, or — on resume — the existing one
	// truncated back to the checkpoint's durable offset.
	fingerprint := cfg.Fingerprint(o.seed, w.Probes.Len())
	ckPath := filepath.Join(o.out, checkpointFile)
	var (
		store        *results.Store
		sink         *results.Sink
		startRound   int
		startSamples uint64
	)
	if o.resume {
		cp, err := engine.LoadCheckpoint(ckPath)
		if err != nil {
			return err
		}
		if cp.Fingerprint != fingerprint {
			return fmt.Errorf("checkpoint %s belongs to a different campaign (fingerprint %s, want %s); "+
				"rerun with the original -seed/-probes/-full/-days or start fresh", ckPath, cp.Fingerprint, fingerprint)
		}
		store, err = results.Open(o.out)
		if err != nil {
			return err
		}
		sink, err = store.Resume(cp.SinkOffset)
		if err != nil {
			return err
		}
		startRound, startSamples = cp.Round+1, cp.Samples
		logger.Info("resuming campaign",
			"rounds_done", startRound, "rounds_total", cfg.Rounds(),
			"samples", startSamples, "sink_offset", cp.SinkOffset)
	} else {
		meta := cfg.Meta(o.seed, w.Probes.Len(), w.Catalog.Len())
		store, sink, err = results.Create(o.out, meta, results.FormatBinary)
		if err != nil {
			return err
		}
	}
	sink.Instrument(results.NewMetrics(reg))

	manifest.WorldFingerprint = fingerprint
	campaignOpts := atlas.CampaignOptions{
		Workers:       workers,
		Fingerprint:   fingerprint,
		StartRound:    startRound,
		StartSamples:  startSamples,
		EngineMetrics: engMetrics,
		Log:           logger.With("engine"),
		OnRound:       o.onRound,
	}
	if o.checkpointEvery > 0 {
		campaignOpts.CheckpointPath = ckPath
		campaignOpts.CheckpointEvery = o.checkpointEvery
		// Commit flushes and fsyncs the samples file, so the checkpoint's
		// offset is always durable on disk — and, for binary stores, a
		// block boundary Resume can truncate to.
		campaignOpts.Commit = sink.Commit
	}

	campSpan := root.Child("campaign")
	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = obs.ContextWith(ctx, campSpan)
	stopProgress := startProgress(logger, m, cfg.Rounds(), o.progressEvery)
	n, err := w.Platform.RunCampaignOpts(ctx, cfg, campaignOpts, sink.Write)
	stopProgress()
	campSpan.End()
	manifest.Samples = n
	if d := campSpan.Duration(); d > 0 {
		manifest.SamplesPerSec = float64(n-startSamples) / d.Seconds()
	}
	if err != nil {
		sink.Close()
		if o.checkpointEvery > 0 {
			logger.Warn("campaign interrupted; rerun with -resume to continue",
				"samples", n, "checkpoint", ckPath, "error", err)
		}
		return err
	}
	flushSpan := root.Child("results.flush")
	err = sink.Close()
	flushSpan.End()
	if err != nil {
		return err
	}
	// The run completed: the checkpoint has nothing left to resume.
	if err := os.Remove(ckPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	logger.Info("campaign complete",
		"samples", n, "out", o.out, "elapsed", time.Since(start).Round(time.Millisecond))

	figSpan := root.Child("figures")
	if tixEnabled {
		// The temporal index is an accelerator: a build failure costs
		// windowed queries their fast path, never the campaign. It runs
		// beside the figure scan: both only read the closed samples file,
		// tix.Extend is single-threaded, and the snapshot write and the
		// renderers leave a core idle. Its span opens after the figures
		// span, so the trace draws it on a lane of its own.
		tixSpan := root.Child("tix.build")
		tixDone := make(chan struct{})
		go func() {
			defer close(tixDone)
			defer tixSpan.End()
			if err := buildTix(store, w.Index, logger.With("tix")); err != nil {
				logger.Warn("temporal index build failed", "error", err)
			}
		}()
		defer func() { <-tixDone }()
	}
	defer figSpan.End()
	if o.quiet && o.figDir == "" {
		return nil
	}
	// §4.3 samples the world's paths, not the campaign, so it runs beside
	// the figure scan on a lane of its own; printFigures waits for it
	// where it prints. Only a run that prints computes it.
	var attribution func() (*delay.Report, error)
	if !o.quiet {
		attrSpan := root.Child("delay.attribution")
		attrDone := make(chan struct{})
		var attr *delay.Report
		var attrErr error
		go func() {
			defer close(attrDone)
			defer attrSpan.End()
			attr, attrErr = delay.WhereIsTheDelay(w.Platform, delay.DefaultConfig())
		}()
		defer func() { <-attrDone }()
		attribution = func() (*delay.Report, error) {
			<-attrDone
			return attr, attrErr
		}
	}
	// One fused parallel scan of the dataset computes every figure report;
	// the renderers below only format what it already aggregated.
	scanCtx := obs.ContextWith(context.Background(), figSpan)
	// Each process folds what it prints: Figures 4-8 and the provider
	// table. The scan also writes the run's one snapshot, covering every
	// block; -snapshot off is the same call without a path.
	so := core.SnapshotOptions{
		Metrics:       snapMetrics,
		RefreshFactor: core.DefaultRefreshFactor,
		Log:           logger.With("snap"),
		Passes:        core.PassProximity | core.PassMinRTT | core.PassFullDist | core.PassLastMile | core.PassProvider,
	}
	if snapEnabled {
		so.Path = store.SnapshotPath()
	}
	rep, st, err := core.ScanStoreSnap(scanCtx, store, w.Index, cfg.Start, 7*24*time.Hour, workers, scanMetrics, so)
	if err != nil {
		return err
	}
	logger.Info("scan complete",
		"samples", st.Samples, "duration", st.Duration.Round(time.Millisecond),
		"mb_per_sec", st.MBPerSec(), "workers", st.Workers)
	if snapEnabled {
		logger.Info("snapshot coverage",
			"blocks_read", st.BlocksRead, "blocks_total", st.BlocksTotal,
			"prefix_blocks", st.PrefixBlocks)
		manifest.Snapshot = &obs.SnapshotCoverage{
			PrefixBlocks: st.PrefixBlocks, BlocksRead: st.BlocksRead, BlocksTotal: st.BlocksTotal,
		}
	}
	if o.figDir != "" {
		if err := writeArtifacts(o.figDir, rep, cfg, figSpan); err != nil {
			return err
		}
		logger.Info("figure artifacts written", "dir", o.figDir)
	}
	if o.quiet {
		return nil
	}
	stdout := o.stdout
	if stdout == nil {
		stdout = os.Stdout
	}
	return printFigures(stdout, rep, w, figSpan, attribution)
}

// buildTix builds (or incrementally extends) the dataset's temporal
// aggregate index so that windowed queries — dataset -op window, or an
// atlasd serving this directory — compose per-block records instead of
// rescanning the campaign. A record is a function of its block alone,
// so rebuilding after an interrupted run appends exactly the records
// the earlier run would have.
func buildTix(store *results.Store, idx *core.Index, logger *obs.Logger) error {
	sf, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		return err
	}
	defer closer.Close()
	blocks := sf.Blocks()
	ix, err := tix.Open(store.TixPath(), tix.Binding{
		PassSet: tix.PassSetCDF,
		Index:   idx.Fingerprint(),
		Meta:    core.MetaFingerprint(store.Meta()),
	}, blocks, logger)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := ix.Extend(sf, blocks, idx); err != nil {
		ix.Close()
		return err
	}
	logger.Info("temporal index ready",
		"path", ix.Path(), "records", ix.Nodes(), "blocks", len(blocks),
		"elapsed", time.Since(start).Round(time.Millisecond))
	return ix.Close()
}

// writeTrace dumps the span tree as Chrome trace-event JSON
// (Perfetto/chrome://tracing loadable). Write and close failures are
// surfaced — a truncated trace must fail the run, not pass silently.
func writeTrace(path string, root *obs.Span, logger *obs.Logger) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := root.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace %s: %w", path, err)
	}
	logger.Info("trace written", "path", path)
	return nil
}

// progressSnapshot builds the /api/v1/progress payload function: a
// per-request snapshot of the campaign watermarks, engine queue depths,
// snapshot cache counters, and scan throughput.
func progressSnapshot(manifest *obs.RunManifest, start time.Time, m *atlas.Metrics, em *engine.Metrics, sm *snap.Metrics, scm *scan.Metrics, totalRounds int) func() any {
	type campaignProgress struct {
		RoundsDone  float64 `json:"rounds_done"`
		RoundsTotal float64 `json:"rounds_total"`
		Samples     uint64  `json:"samples"`
		SamplesLost uint64  `json:"samples_lost"`
		ETASeconds  float64 `json:"eta_seconds"`
	}
	type engineProgress struct {
		QueueDepth     float64            `json:"queue_depth"`
		QueueDepthPeak float64            `json:"queue_depth_peak"`
		ShardRounds    map[string]float64 `json:"shard_rounds,omitempty"`
	}
	type snapshotProgress struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
		Writes        uint64 `json:"writes"`
	}
	type scanProgress struct {
		Scans         uint64  `json:"scans"`
		Samples       uint64  `json:"samples"`
		SamplesPerSec float64 `json:"samples_per_sec"`
	}
	type progress struct {
		RunID         string           `json:"run_id"`
		UptimeSeconds float64          `json:"uptime_seconds"`
		Campaign      campaignProgress `json:"campaign"`
		Engine        engineProgress   `json:"engine"`
		Snapshot      snapshotProgress `json:"snapshot"`
		Scan          scanProgress     `json:"scan"`
	}
	return func() any {
		p := progress{
			RunID:         manifest.RunID,
			UptimeSeconds: time.Since(start).Seconds(),
			Campaign: campaignProgress{
				RoundsDone:  m.CampaignRoundsDone.Value(),
				RoundsTotal: m.CampaignRoundsTotal.Value(),
				Samples:     m.CampaignSamples.Sum(),
				SamplesLost: m.CampaignLost.Value(),
			},
			Engine: engineProgress{
				QueueDepth:     em.QueueDepth.Value(),
				QueueDepthPeak: em.QueueDepthPeak.Value(),
			},
			Snapshot: snapshotProgress{
				Hits:          sm.Hits.Value(),
				Misses:        sm.Misses.Value(),
				Invalidations: sm.Invalidations.Value(),
				Writes:        sm.Writes.Value(),
			},
			Scan: scanProgress{
				Scans:         scm.Scans.Value(),
				Samples:       scm.Samples.Value(),
				SamplesPerSec: scm.SamplesPerSec.Value(),
			},
		}
		if done := p.Campaign.RoundsDone; done > 0 && totalRounds > 0 && done < float64(totalRounds) {
			perRound := time.Since(start).Seconds() / done
			p.Campaign.ETASeconds = perRound * (float64(totalRounds) - done)
		}
		em.ShardRounds.Walk(func(labels []string, v float64) {
			if p.Engine.ShardRounds == nil {
				p.Engine.ShardRounds = make(map[string]float64)
			}
			p.Engine.ShardRounds[labels[0]] = v
		})
		return p
	}
}

// startProgress launches the periodic campaign progress reporter. The
// returned stop function halts it and waits for the goroutine to exit.
func startProgress(logger *obs.Logger, m *atlas.Metrics, totalRounds int, every time.Duration) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		started := time.Now()
		var lastSamples uint64
		lastAt := started
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				samples := m.CampaignSamples.Sum()
				rate := float64(samples-lastSamples) / now.Sub(lastAt).Seconds()
				lastSamples, lastAt = samples, now
				roundsDone := m.CampaignRoundsDone.Value()
				eta := "?"
				if roundsDone > 0 && totalRounds > 0 {
					perRound := time.Since(started).Seconds() / roundsDone
					eta = time.Duration(perRound * (float64(totalRounds) - roundsDone) * float64(time.Second)).Round(time.Second).String()
				}
				logger.Info("progress",
					"round", roundsDone, "rounds_total", totalRounds,
					"pct", fmt.Sprintf("%.1f", 100*roundsDone/float64(totalRounds)),
					"samples", samples, "samples_per_sec", fmt.Sprintf("%.0f", rate),
					"eta", eta, "continents", strings.TrimPrefix(continentTally(m), ", "))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// continentTally formats the per-continent sample counts, largest first.
func continentTally(m *atlas.Metrics) string {
	type tally struct {
		code string
		n    uint64
	}
	var ts []tally
	m.CampaignSamples.Walk(func(labels []string, v uint64) {
		ts = append(ts, tally{labels[0], v})
	})
	if len(ts) == 0 {
		return ""
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].n > ts[j].n })
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = fmt.Sprintf("%s=%d", t.code, t.n)
	}
	return ", " + strings.Join(parts, " ")
}

// writeArtifacts exports the dataset figures as CSV and SVG files from the
// fused scan's reports, one child span per artifact.
func writeArtifacts(dir string, rep *core.SuiteReport, cfg atlas.CampaignConfig, span *obs.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		s := span.Child("artifact:" + name)
		defer s.End()
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	series, _, err := figures.Figure1(context.Background(), 1)
	if err != nil {
		return err
	}
	if err := write("figure1.csv", func(f io.Writer) error { return figures.Figure1CSV(f, series) }); err != nil {
		return err
	}
	if err := write("figure1.svg", func(f io.Writer) error { return figures.Figure1SVG(f, series) }); err != nil {
		return err
	}
	if err := write("figure4.csv", func(f io.Writer) error { return figures.Figure4CSV(f, rep.Proximity) }); err != nil {
		return err
	}
	if err := write("figure5.csv", func(f io.Writer) error { return figures.CDFCSV(f, rep.MinRTT) }); err != nil {
		return err
	}
	if err := write("figure5.svg", func(f io.Writer) error { return figures.CDFSVG(f, rep.MinRTT, "Figure 5: min RTT CDF by continent") }); err != nil {
		return err
	}
	if err := write("figure6.csv", func(f io.Writer) error { return figures.CDFCSV(f, rep.FullDist) }); err != nil {
		return err
	}
	if err := write("figure6.svg", func(f io.Writer) error { return figures.CDFSVG(f, rep.FullDist, "Figure 6: all pings to closest DC") }); err != nil {
		return err
	}
	if err := write("figure7.csv", func(f io.Writer) error { return figures.Figure7CSV(f, rep.LastMile) }); err != nil {
		return err
	}
	if err := write("figure7.svg", func(f io.Writer) error { return figures.Figure7SVG(f, rep.LastMile, cfg.Start) }); err != nil {
		return err
	}
	rep8, _, err := figures.Figure8(rep.LastMile, apps.Paper())
	if err != nil {
		return err
	}
	return write("figure8.csv", func(f io.Writer) error { return figures.Figure8CSV(f, rep8) })
}

// printFigures writes every figure and companion table to out. The §4.3
// table comes from attribution, which may still be computing.
func printFigures(out io.Writer, rep *core.SuiteReport, w *world.World, span *obs.Span, attribution func() (*delay.Report, error)) error {
	ctx := context.Background()
	emit := func(name string, lines []string) {
		fmt.Fprintf(out, "\n=== Figure %s ===\n", name)
		for _, l := range lines {
			fmt.Fprintln(out, l)
		}
	}
	// figure runs fn under a child span and prints its lines.
	figure := func(name string, fn func() ([]string, error)) error {
		s := span.Child("figure:" + name)
		defer s.End()
		lines, err := fn()
		if err != nil {
			return err
		}
		emit(name, lines)
		return nil
	}

	if err := figure("1 (zeitgeist)", func() ([]string, error) {
		_, l, err := figures.Figure1(ctx, 1)
		return l, err
	}); err != nil {
		return err
	}
	if err := figure("2 (application requirements)", func() ([]string, error) {
		return figures.Figure2(apps.Paper())
	}); err != nil {
		return err
	}
	if err := figure("3a (cloud regions)", func() ([]string, error) {
		return figures.Figure3a(w.Catalog)
	}); err != nil {
		return err
	}
	if err := figure("3b (probes)", func() ([]string, error) {
		return figures.Figure3b(w.Probes)
	}); err != nil {
		return err
	}
	if err := figure("4 (proximity to the cloud)", func() ([]string, error) {
		return figures.Figure4Lines(rep.Proximity), nil
	}); err != nil {
		return err
	}
	if err := figure("5 (min RTT CDF by continent)", func() ([]string, error) {
		return figures.CDFLines(rep.MinRTT)
	}); err != nil {
		return err
	}
	if err := figure("6 (all pings to closest DC)", func() ([]string, error) {
		return figures.CDFLines(rep.FullDist)
	}); err != nil {
		return err
	}
	if err := figure("7 (wired vs wireless)", func() ([]string, error) {
		return figures.Figure7Lines(rep.LastMile)
	}); err != nil {
		return err
	}
	if err := figure("8 (feasibility zone)", func() ([]string, error) {
		_, l, err := figures.Figure8(rep.LastMile, apps.Paper())
		return l, err
	}); err != nil {
		return err
	}

	// §4.3 and §5 companion tables.
	if err := figure("§4.3 (where is the delay?)", func() ([]string, error) {
		rep, err := attribution()
		if err != nil {
			return nil, err
		}
		return rep.Format(), nil
	}); err != nil {
		return err
	}
	if err := figure("§4.1 (per-provider reachability)", func() ([]string, error) {
		var lines []string
		for _, row := range rep.Provider.Rows {
			lines = append(lines, fmt.Sprintf("%-16s median=%6.1fms p95=%7.1fms loss=%.2f%% (n=%d)",
				row.Provider, row.Summary.Median, row.Summary.P95, 100*row.LossRate, row.Summary.N))
		}
		return lines, nil
	}); err != nil {
		return err
	}
	return figure("§5 (backhaul demand per application)", func() ([]string, error) {
		rep, err := bandwidth.Justify(apps.Paper(), bandwidth.Metro(), 0.95)
		if err != nil {
			return nil, err
		}
		return rep.Format(), nil
	})
}
