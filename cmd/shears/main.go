// Command shears is the end-to-end reproduction driver: it builds the
// world (probes, cloud regions, latency model), runs the measurement
// campaign, writes the dataset to disk, and regenerates every figure of
// the paper from it: it prints every entry of the internal/figures table
// (then the §4.3, §4.1 and §5 companion tables), and -figdir writes each
// CSV and SVG form an entry has as figure<N>.csv/.svg. One fused scan
// folds the passes of every entry.
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
// Observability: internal/cmdrun owns the run's logs, profiles, status
// server and <out>/run.json manifest; the driver adds the campaign and
// engine blocks to /api/v1/progress, -progress log lines (samples/sec,
// ETA, per-continent tallies), and -trace out.json: the run's span tree
// as Chrome trace-event JSON (Perfetto, chrome://tracing, trace -summary).
// Under its campaign span the engine's stages sit beside the rounds: an
// engine.generate per shard worker, results.write (the merger's time in
// the sink) and a results.commit per checkpoint.
//
// After the campaign the driver builds the temporal index
// (<out>/samples.tix) beside the figure scan, and the scan writes
// <out>/samples.snap — the Figure 4 and 5 state (per-country and
// per-probe minima, kilobytes) over the whole finished store, written
// once per run — so a later figures -fig 4|5 over the (possibly grown)
// dataset decodes only blocks appended since. A failed write of either
// is a warning, not a failed run. The campaign itself never touches
// them: an interrupted run leaves no snapshot and its -resume pays one
// cold scan at the end.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
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
	"repro/internal/cmdrun"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/tix"
	"repro/internal/world"
)

// options bundles the driver's knobs (one field per flag; telemetry holds five).
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
	remote          string // base URL of a live atlasd analysis API; fetch figures instead of scanning
	telemetry       cmdrun.Flags

	// Test hooks (unexported, zero in production).
	stdout      io.Writer                       // figure output; nil means os.Stdout
	logDst      io.Writer                       // structured log destination; nil means stderr
	statusReady func(addr string)               // called with the bound status address
	onRound     func(round int, samples uint64) // observes each merged campaign round
	ctx         context.Context                 // campaign context; nil means Background
	reg         *obs.Registry                   // metrics registry; nil means a fresh one
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
	flag.StringVar(&o.remote, "remote", "", "fetch figures 4-7 from a running atlasd -serve-data API at this base URL instead of running a campaign")
	o.telemetry.Register(flag.CommandLine)
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
	if o.days < 0 {
		return fmt.Errorf("-days %d is negative (0 = config default)", o.days)
	}
	if o.checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every %d is negative (0 disables checkpointing)", o.checkpointEvery)
	}
	logDst := o.logDst
	if logDst == nil {
		logDst = os.Stderr
	}
	r, err := cmdrun.Start(cmdrun.Config{
		Flags: o.telemetry, Binary: "shears", Events: flightRecorderSize,
		Dir: o.out, Manifest: manifestFile,
		LogDst: logDst, Registry: o.reg, StatusReady: o.statusReady,
	})
	if err != nil {
		return err
	}
	logger, root, manifest := r.Log(), r.Span(), r.Manifest()
	m := atlas.NewCampaignMetrics(r.Registry())
	engMetrics := engine.NewMetrics(r.Registry())
	root.SetAttr("seed", o.seed)
	root.SetAttr("probes", o.probes)
	defer func() {
		err = r.Finish(err, func(dump obs.SpanDump) error {
			manifest.PeakQueueDepth = engMetrics.QueueDepthPeak.Value()
			var werr error
			if o.tracePath != "" {
				if werr = writeTrace(o.tracePath, root); werr == nil {
					logger.Info("trace written", "path", o.tracePath)
				}
			}
			for _, line := range obs.FormatStageTable(obs.StageTotals(dump), r.Elapsed()) {
				fmt.Fprintln(logDst, line)
			}
			return werr
		})
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

	// On resume the checkpoint names the round the campaign starts at,
	// which the progress reports need before it runs.
	fingerprint := cfg.Fingerprint(o.seed, w.Probes.Len())
	ckPath := filepath.Join(o.out, checkpointFile)
	var (
		cp           *engine.Checkpoint
		startRound   int
		startSamples uint64
	)
	if o.resume {
		if cp, err = engine.LoadCheckpoint(ckPath); err != nil {
			return err
		}
		if cp.Fingerprint != fingerprint {
			return fmt.Errorf("checkpoint %s belongs to a different campaign (fingerprint %s, want %s); "+
				"rerun with the original -seed/-probes/-full/-days or start fresh", ckPath, cp.Fingerprint, fingerprint)
		}
		startRound, startSamples = cp.Round+1, cp.Samples
	}
	eta := campaignETA{started: time.Now(), from: startRound, total: cfg.Rounds()}
	if err := r.Serve(campaignProgress(m, engMetrics, eta)); err != nil {
		return err
	}

	// Open the sink: a fresh dataset, or — on resume — the existing one
	// truncated back to the checkpoint's durable offset.
	var (
		store *results.Store
		sink  *results.Sink
	)
	if cp != nil {
		store, err = results.Open(o.out)
		if err != nil {
			return err
		}
		sink, err = store.Resume(cp.SinkOffset)
		if err != nil {
			return err
		}
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
	sink.Instrument(results.NewMetrics(r.Registry()))

	manifest.WorldFingerprint = fingerprint
	campaignOpts := atlas.CampaignOptions{
		Workers:       workers,
		Fingerprint:   fingerprint,
		StartRound:    startRound,
		StartSamples:  startSamples,
		EngineMetrics: engMetrics,
		Log:           logger.With("component", "engine"),
		OnRound:       o.onRound,
	}
	campSpan := root.Child("campaign")
	if o.checkpointEvery > 0 {
		campaignOpts.CheckpointPath = ckPath
		campaignOpts.CheckpointEvery = o.checkpointEvery
		// Commit flushes and fsyncs the samples file, so the checkpoint's
		// offset is always durable on disk — and, for binary stores, a
		// block boundary Resume can truncate to.
		campaignOpts.Commit = func() (int64, error) {
			s := campSpan.Child("results.commit")
			defer s.End()
			return sink.Commit()
		}
	}
	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = obs.ContextWith(ctx, campSpan)
	stopProgress := startProgress(logger, m, eta, o.progressEvery)
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
		"samples", n, "out", o.out, "elapsed", r.Elapsed().Round(time.Millisecond))

	figSpan := root.Child("figures")
	// The temporal index is an accelerator: a build failure costs windowed
	// queries their fast path, never the campaign. It runs beside the
	// figure scan: both only read the closed samples file, tix.Extend is
	// single-threaded, and the snapshot write and the renderers leave a
	// core idle. Its span opens after the figures span, so the trace draws
	// it on a lane of its own.
	tixSpan := root.Child("tix.build")
	tixDone := make(chan struct{})
	go func() {
		defer close(tixDone)
		defer tixSpan.End()
		if err := buildTix(store, w.Index, logger.With("component", "tix")); err != nil {
			logger.Warn("temporal index build failed", "error", err)
		}
	}()
	defer func() { <-tixDone }()
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
			attr, attrErr = delay.WhereIsTheDelay(w.Platform)
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
	// Each process folds what it prints: the passes of every figure of
	// the table and the §4.1 provider table. The scan also writes the
	// run's one snapshot, covering every block.
	so := core.SnapshotOptions{
		Path:    store.SnapshotPath(),
		Metrics: r.SnapMetrics(),
		Log:     logger.With("component", "snap"),
		Passes:  core.PassProvider,
	}
	for _, f := range figures.Table {
		so.Passes |= f.Passes
	}
	rep, st, err := core.ScanStoreSnap(scanCtx, store, w.Index, cfg.Start, 7*24*time.Hour, workers, r.ScanMetrics(), so)
	if err != nil {
		return err
	}
	r.NoteScan(st, rep)
	in := &figures.Inputs{World: w, Report: rep, Start: cfg.Start}
	if o.figDir != "" {
		if err := writeArtifacts(o.figDir, in, figSpan); err != nil {
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
	return printFigures(stdout, in, figSpan, attribution)
}

// buildTix builds (or incrementally extends) the dataset's temporal
// aggregate index so that windowed queries — the dataset window op, or an
// atlasd serving this directory — compose per-block records instead of
// rescanning the campaign. A record is a function of its block alone,
// so rebuilding after an interrupted run appends exactly the records
// the earlier run would have.
func buildTix(store *results.Store, idx *core.Index, logger *slog.Logger) error {
	sf, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		return err
	}
	defer closer.Close()
	blocks := sf.Blocks()
	ix, err := tix.Open(store.TixPath(), tix.BindingFor(idx.Fingerprint(), core.MetaFingerprint(store.Meta())), blocks, logger)
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
func writeTrace(path string, root *obs.Span) error {
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
	return nil
}

// campaignETA estimates the time a campaign has left from the pace of
// the rounds this process has run. A run resumed at round from has run
// done-from of the done rounds the gauge reports.
type campaignETA struct {
	started     time.Time
	from, total int
}

// left is the estimated time from now to the campaign's last round,
// done rounds in; ok is false until this process has run a round.
func (e campaignETA) left(done float64, now time.Time) (d time.Duration, ok bool) {
	ran := done - float64(e.from)
	if ran <= 0 {
		return 0, false
	}
	if rest := float64(e.total) - done; rest > 0 {
		d = time.Duration(float64(now.Sub(e.started)) / ran * rest)
	}
	return d, true
}

// campaignProgress adds the campaign block (round watermarks, samples,
// ETA) and the engine block (queue depths, per-shard rounds) to the
// run's /api/v1/progress body.
func campaignProgress(m *atlas.CampaignMetrics, em *engine.Metrics, eta campaignETA) func(map[string]any) {
	type campaignBlock struct {
		RoundsDone  float64 `json:"rounds_done"`
		RoundsTotal float64 `json:"rounds_total"`
		Samples     uint64  `json:"samples"`
		SamplesLost uint64  `json:"samples_lost"`
		ETASeconds  float64 `json:"eta_seconds"`
	}
	type engineBlock struct {
		QueueDepth     float64            `json:"queue_depth"`
		QueueDepthPeak float64            `json:"queue_depth_peak"`
		ShardRounds    map[string]float64 `json:"shard_rounds,omitempty"`
	}
	return func(p map[string]any) {
		c := campaignBlock{
			RoundsDone:  m.RoundsDone.Value(),
			RoundsTotal: m.RoundsTotal.Value(),
			Samples:     m.Samples.Sum(),
			SamplesLost: m.Lost.Value(),
		}
		if d, ok := eta.left(c.RoundsDone, time.Now()); ok {
			c.ETASeconds = d.Seconds()
		}
		e := engineBlock{
			QueueDepth:     em.QueueDepth.Value(),
			QueueDepthPeak: em.QueueDepthPeak.Value(),
		}
		em.ShardRounds.Walk(func(labels []string, v float64) {
			if e.ShardRounds == nil {
				e.ShardRounds = make(map[string]float64)
			}
			e.ShardRounds[labels[0]] = v
		})
		p["campaign"], p["engine"] = c, e
	}
}

// startProgress launches the periodic campaign progress reporter. The
// returned stop function halts it and waits for the goroutine to exit.
func startProgress(logger *slog.Logger, m *atlas.CampaignMetrics, eta campaignETA, every time.Duration) (stop func()) {
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
		var lastSamples uint64
		lastAt := time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				samples := m.Samples.Sum()
				rate := float64(samples-lastSamples) / now.Sub(lastAt).Seconds()
				lastSamples, lastAt = samples, now
				roundsDone := m.RoundsDone.Value()
				left := "?"
				if d, ok := eta.left(roundsDone, now); ok {
					left = d.Round(time.Second).String()
				}
				logger.Info("progress",
					"round", roundsDone, "rounds_total", eta.total,
					"pct", fmt.Sprintf("%.1f", 100*roundsDone/float64(eta.total)),
					"samples", samples, "samples_per_sec", fmt.Sprintf("%.0f", rate),
					"eta", left, "continents", strings.TrimPrefix(continentTally(m), ", "))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// continentTally formats the per-continent sample counts, largest first.
func continentTally(m *atlas.CampaignMetrics) string {
	type tally struct {
		code string
		n    uint64
	}
	var ts []tally
	m.Samples.Walk(func(labels []string, v uint64) {
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

// writeArtifacts writes figure<N>.csv and figure<N>.svg for every form
// a figure of the table has, one child span per artifact.
func writeArtifacts(dir string, in *figures.Inputs, span *obs.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, form func(io.Writer, *figures.Inputs) error) error {
		s := span.Child("artifact:" + name)
		defer s.End()
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := form(f, in); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	for i := range figures.Table {
		f := &figures.Table[i]
		if f.CSV != nil {
			if err := write("figure"+f.Name+".csv", f.CSV); err != nil {
				return err
			}
		}
		if f.SVG != nil {
			if err := write("figure"+f.Name+".svg", f.SVG); err != nil {
				return err
			}
		}
	}
	return nil
}

// printFigures writes every figure of the table and the companion
// tables to out. The §4.3 table comes from attribution, which may still
// be computing.
func printFigures(out io.Writer, in *figures.Inputs, span *obs.Span, attribution func() (*delay.Report, error)) error {
	// figure runs fn under a child span and prints its lines.
	figure := func(title string, fn func() ([]string, error)) error {
		s := span.Child("figure:" + title)
		defer s.End()
		lines, err := fn()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n=== Figure %s ===\n", title)
		for _, l := range lines {
			fmt.Fprintln(out, l)
		}
		return nil
	}
	for i := range figures.Table {
		f := &figures.Table[i]
		if err := figure(f.Title(), func() ([]string, error) { return f.Lines(in) }); err != nil {
			return err
		}
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
		for _, row := range in.Report.Provider.Rows {
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
