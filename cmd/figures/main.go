// Command figures regenerates a single figure of the paper, either from a
// stored campaign dataset (produced by cmd/shears) or from a freshly
// synthesized small campaign.
//
// Usage:
//
//	figures -fig 4 -data ./dataset     # from a stored campaign
//	figures -fig 7                     # synthesize a small campaign first
//	figures -fig 1                     # dataset-independent figures
//	figures -fig 6 -data ./dataset -workers 8
//
// The figure's entry in the internal/figures table decides the run: -fig
// must name one, -csv needs a CSV form, and what the entry reads sets
// what is loaded — nothing (1, 2), the world (3a, 3b), or the suite
// passes of a dataset (4-8), which read the world too. -fig, -csv and
// -snapshot are checked before any work. With -data, every figure that
// reads a world builds the dataset's own (meta.json) unless
// -probes/-seed are given. Every dataset figure is one suite report
// over the passes its entry names: a stored dataset is read with the
// parallel scanner (-workers shards the file; the output is identical
// for any worker count), a synthesized campaign is folded in memory as
// the same column blocks. Figures 4
// and 5 resume from the dataset's analysis snapshot (samples.snap, a
// few kilobytes of per-country and per-probe minima maintained by
// cmd/shears): the scan decodes only blocks appended since and rewrites
// the file once the delta has grown enough. Figures 6-8 read state
// sized by the samples, which is never persisted: they scan cold and
// leave samples.snap alone. -snapshot off is the same scan with no
// snapshot: cold, one pass, samples.snap neither read nor written. A
// snapshot that cannot be written is a warning; the figure still prints.
//
// Observability: the command emits structured leveled logs (-log-format
// text|json, -log-level) on stderr, and -status-addr serves live run state
// over HTTP while the render executes: GET /metrics (Prometheus text),
// GET /debug/events (flight-recorder dump of recent log events), and
// GET /api/v1/progress (scan throughput and snapshot cache counters).
// Renders against a stored dataset also write <data>/run.figures.json — a
// manifest with the run ID, build version, flags, per-stage durations
// (world.build, the figure's snap.load, scan, snap.merge, suite.report
// and snapshot.write, and emit), scan throughput and snapshot coverage: the
// samples the snapshot stood in for and the passes the run folded.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/atlas"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/snap"
	"repro/internal/world"
)

// options bundles the command's knobs (one field per flag).
type options struct {
	fig        string
	data       string
	probes     int
	seed       uint64
	probesSet  bool // -probes was given on the command line
	seedSet    bool // -seed was given on the command line
	csv        bool
	workers    int
	snapMode   string
	cpuProfile string
	memProfile string
	statusAddr string // live status HTTP listener; empty disables
	logFormat  string // structured log encoding: text or json
	logLevel   string // minimum log level: debug, info, warn, error

	// Test hooks (unexported, zero in production).
	stdout       io.Writer         // figure line destination; nil means stdout
	logDst       io.Writer         // structured log destination; nil means stderr
	statusReady  func(addr string) // called with the bound status address
	beforeRender func()            // called after the status server is up, before rendering
}

// manifestFile is the run manifest's name inside the dataset dir. It is
// distinct from cmd/shears' run.json so a render never clobbers the
// campaign's own manifest.
const manifestFile = "run.figures.json"

// flightRecorderSize is how many recent log events /debug/events retains.
const flightRecorderSize = 256

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var o options
	var withCSV []string
	for _, f := range figures.Table {
		if f.CSV != nil {
			withCSV = append(withCSV, f.Name)
		}
	}
	flag.StringVar(&o.fig, "fig", "", "figure to render: "+strings.Join(figures.Names(), ", "))
	flag.StringVar(&o.data, "data", "", "stored dataset directory (optional)")
	flag.IntVar(&o.probes, "probes", 400, "world probe count; with -data the default is the dataset's (meta.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "world seed; with -data the default is the dataset's (meta.json)")
	flag.BoolVar(&o.csv, "csv", false, "emit CSV instead of text (figures "+strings.Join(withCSV, ", ")+")")
	flag.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "scan worker count for stored datasets")
	flag.StringVar(&o.snapMode, "snapshot", "on", "analysis snapshot (samples.snap) for stored datasets: on or off")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an end-of-run heap profile to this file")
	flag.StringVar(&o.statusAddr, "status-addr", "", "serve live run status (/metrics, /debug/events, /api/v1/progress) on this address")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log encoding: text (logfmt) or json")
	flag.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "probes":
			o.probesSet = true
		case "seed":
			o.seedSet = true
		}
	})
	if err := run(o); err != nil {
		if errors.Is(err, core.ErrEmptyStore) {
			log.Fatalf("dataset %s holds no samples yet — run cmd/shears against it first, then retry", o.data)
		}
		log.Fatal(err)
	}
}

// runEnv carries the run's telemetry plumbing into the render path. A
// nil *runEnv (as the unit tests use) disables all of it.
type runEnv struct {
	root        *obs.Span
	log         *obs.Logger
	scanMetrics *scan.Metrics
	snapMetrics *snap.Metrics
	manifest    *obs.RunManifest
}

func (e *runEnv) span() *obs.Span {
	if e == nil {
		return nil
	}
	return e.root
}

func (e *runEnv) logger() *obs.Logger {
	if e == nil {
		return nil
	}
	return e.log
}

func (e *runEnv) scanInstruments() *scan.Metrics {
	if e == nil {
		return nil
	}
	return e.scanMetrics
}

func (e *runEnv) snapInstruments() *snap.Metrics {
	if e == nil {
		return nil
	}
	return e.snapMetrics
}

// noteScan records one completed dataset scan: the manifest's throughput
// and snapshot coverage, plus the scan-completion log events. rep is the
// suite report the scan fed.
func (e *runEnv) noteScan(st scan.Stats, rep *core.SuiteReport) {
	if e == nil {
		return
	}
	if e.manifest != nil {
		e.manifest.Samples += st.Samples
		if st.Duration > 0 {
			e.manifest.SamplesPerSec = st.SamplesPerSec()
		}
		e.manifest.Snapshot = &obs.SnapshotCoverage{
			PrefixBlocks: st.PrefixBlocks, BlocksRead: st.BlocksRead, BlocksTotal: st.BlocksTotal,
			PrefixSamples: rep.Samples - st.Samples, Passes: rep.Passes.String(),
		}
	}
	e.log.Info("scan complete",
		"samples", st.Samples, "duration", st.Duration.Round(time.Millisecond),
		"mb_per_sec", st.MBPerSec(), "workers", st.Workers)
	e.log.Info("snapshot coverage",
		"blocks_read", st.BlocksRead, "blocks_total", st.BlocksTotal,
		"prefix_blocks", st.PrefixBlocks)
}

func run(o options) (err error) {
	start := time.Now()
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
	stdout := o.stdout
	if stdout == nil {
		stdout = os.Stdout
	}
	rec := obs.NewRecorder(flightRecorderSize)
	logger := obs.NewLogger(logDst,
		obs.WithLogFormat(logFormat), obs.WithLogLevel(level), obs.WithRecorder(rec),
	).With("figures")
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
	reg := obs.NewRegistry()
	scanMetrics := scan.NewMetrics(reg)
	snapMetrics := snap.NewMetrics(reg)
	workers := o.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	manifest := obs.NewRunManifest("figures", start)
	manifest.Flags = obs.FlagsFromSet(flag.CommandLine)
	manifest.Workers = workers
	root := obs.NewTrace("figures.run")
	root.SetAttr("fig", o.fig)
	env := &runEnv{root: root, log: logger, scanMetrics: scanMetrics, snapMetrics: snapMetrics, manifest: manifest}
	defer func() {
		root.End()
		// The manifest lands inside the dataset dir; dataset-independent
		// renders (and runs that failed to open the store) write none.
		if o.data == "" {
			return
		}
		if _, serr := os.Stat(o.data); serr != nil {
			return
		}
		manifest.Finish(time.Now())
		dump := root.Dump()
		manifest.SetStagesFromDump(dump)
		// The figure span's children (snapshot load, scan, merge, report,
		// write) are stages too, or the table would not say where the time
		// inside figure:N went.
		for _, c := range dump.Children {
			if strings.HasPrefix(c.Name, "figure:") {
				for _, g := range c.Children {
					manifest.Stages = append(manifest.Stages, obs.StageDuration{Name: g.Name, DurationMs: g.DurationMs})
				}
			}
		}
		data, werr := manifest.JSON()
		if werr == nil {
			werr = snap.ReplaceFile(filepath.Join(o.data, manifestFile), data)
		}
		if werr != nil && err == nil {
			err = werr
		}
	}()

	// Live status: /metrics, /debug/events and /api/v1/progress serve the
	// run's state while the render executes.
	if o.statusAddr != "" {
		ln, lerr := net.Listen("tcp", o.statusAddr)
		if lerr != nil {
			return lerr
		}
		srv := &http.Server{Handler: obs.NewStatusMux(reg, rec, figuresProgress(manifest, start, o.fig, snapMetrics, scanMetrics))}
		go srv.Serve(ln)
		defer srv.Close()
		logger.Info("status server listening", "addr", ln.Addr().String())
		if o.statusReady != nil {
			o.statusReady(ln.Addr().String())
		}
	}

	logger.Info("rendering figure", "fig", o.fig, "data", o.data, "csv", o.csv)
	if o.beforeRender != nil {
		o.beforeRender()
	}
	lines, err := render(o, env)
	if err != nil {
		return err
	}
	emit := root.Child("emit")
	out := bufio.NewWriter(stdout)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	err = out.Flush()
	emit.End()
	if err != nil {
		return err
	}
	logger.Info("figure rendered",
		"fig", o.fig, "lines", len(lines), "elapsed", time.Since(start).Round(time.Millisecond))
	if o.memProfile != "" {
		return obs.WriteHeapProfile(o.memProfile)
	}
	return nil
}

// figuresProgress builds the /api/v1/progress payload function: a
// per-request snapshot of the scan throughput and snapshot cache counters.
func figuresProgress(manifest *obs.RunManifest, start time.Time, fig string, sm *snap.Metrics, scm *scan.Metrics) func() any {
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
		Figure        string           `json:"figure"`
		UptimeSeconds float64          `json:"uptime_seconds"`
		Snapshot      snapshotProgress `json:"snapshot"`
		Scan          scanProgress     `json:"scan"`
	}
	return func() any {
		return progress{
			RunID:         manifest.RunID,
			Figure:        fig,
			UptimeSeconds: time.Since(start).Seconds(),
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
	}
}

// check looks -fig up in the figures table and rejects a flag
// combination no work can satisfy — a figure with no CSV form, an
// unknown figure, a bad -snapshot — before a world is built or a sample
// synthesized.
func (o options) check() (*figures.Figure, error) {
	f, ok := figures.Lookup(o.fig)
	if o.csv && (!ok || f.CSV == nil) {
		return nil, fmt.Errorf("figure %q has no CSV form", o.fig)
	}
	if !ok {
		return nil, fmt.Errorf("unknown figure %q (want one of %v)", o.fig, figures.Names())
	}
	if o.snapMode != "on" && o.snapMode != "off" && o.snapMode != "" {
		return nil, fmt.Errorf("invalid -snapshot %q (want on or off)", o.snapMode)
	}
	return f, nil
}

// render draws the figure from what its table entry reads: nothing, the
// world, or the suite report over its passes — from the stored dataset
// or a synthesized campaign.
func render(o options, env *runEnv) ([]string, error) {
	f, err := o.check()
	if err != nil {
		return nil, err
	}
	ctx := obs.ContextWith(context.Background(), env.span())
	in := &figures.Inputs{Ctx: ctx, CorpusSeed: o.seed}
	if f.World {
		w, d, err := loadWorld(o, env)
		if err != nil {
			return nil, err
		}
		in.World = w
		if f.Passes != 0 {
			span := env.span().Child("figure:" + o.fig)
			defer span.End()
			if d.store == nil {
				if err := d.synthesize(ctx, w); err != nil {
					return nil, err
				}
			}
			if in.Report, err = d.report(obs.ContextWith(ctx, span), w.Index, f.Passes); err != nil {
				return nil, err
			}
		}
	}
	if !o.csv {
		return f.Lines(in)
	}
	var buf bytes.Buffer
	if err := f.CSV(&buf, in); err != nil {
		return nil, err
	}
	return splitLines(buf.String()), nil
}

// buildWorld synthesizes the world under its own stage span.
func buildWorld(o options, env *runEnv) (*world.World, error) {
	s := env.span().Child("world.build")
	defer s.End()
	w, err := world.Build(world.Config{Seed: o.seed, Probes: o.probes})
	if err != nil {
		return nil, err
	}
	env.logger().Info("world built",
		"probes", w.Probes.Len(), "regions", w.Catalog.Len(), "seed", o.seed)
	return w, nil
}

// dataset is a figure's sample source: a stored campaign scanned in
// parallel, or a freshly synthesized in-memory one folded block by block.
type dataset struct {
	store   *results.Store  // non-nil when loaded from disk
	mem     *results.Memory // the synthesized campaign otherwise
	start   time.Time
	workers int
	snap    core.SnapshotOptions // empty Path: scan cold, leave samples.snap alone
	env     *runEnv              // telemetry plumbing; nil disables
}

// loadWorld resolves, in one place for every figure that needs one, the
// world a run analyses under, and opens the stored dataset when -data
// names one. A stored dataset's figures come from the world its
// meta.json records unless -probes/-seed say otherwise on the command
// line; a world that differs from the dataset's classifies its samples
// differently, so such a run warns and stays away from samples.snap,
// which is bound to the dataset's world.
func loadWorld(o options, env *runEnv) (*world.World, *dataset, error) {
	d := &dataset{workers: o.workers, env: env}
	if o.data != "" {
		store, err := results.Open(o.data)
		if err != nil {
			return nil, nil, err
		}
		meta := store.Meta()
		if !o.probesSet {
			o.probes = meta.Probes
		}
		if !o.seedSet {
			o.seed = meta.Seed
		}
		d.store, d.start = store, meta.Start
		// -snapshot off is the same scan without a snapshot path.
		d.snap = core.SnapshotOptions{
			RefreshFactor: core.DefaultRefreshFactor,
			Metrics:       env.snapInstruments(),
			Log:           env.logger().With("snap"),
		}
		own := o.probes == meta.Probes && o.seed == meta.Seed
		if !own {
			env.logger().Warn("world differs from the dataset's; samples.snap is left alone",
				"probes", o.probes, "seed", o.seed, "dataset_probes", meta.Probes, "dataset_seed", meta.Seed)
		}
		enabled := own && o.snapMode != "off"
		if enabled {
			d.snap.Path = store.SnapshotPath()
		}
		env.logger().Info("dataset opened",
			"dir", o.data, "snapshot", enabled)
	}
	w, err := buildWorld(o, env)
	return w, d, err
}

// synthesize stands in for a stored dataset: a fresh test-scale
// campaign over w, held in memory.
func (d *dataset) synthesize(ctx context.Context, w *world.World) error {
	cfg := atlas.TestCampaign()
	s := d.env.span().Child("campaign.synthesize")
	defer s.End()
	d.mem, d.start = &results.Memory{}, cfg.Start
	_, err := w.Platform.RunCampaign(obs.ContextWith(ctx, s), cfg, d.mem.Add)
	return err
}

// report is the one way a dataset figure gets its numbers: the suite
// report over the passes it reads. A store goes through
// core.ScanStoreSnap — Figures 4 and 5 seeded from samples.snap, the
// rest (and everything when d.snap names no path) cold — and a
// synthesized campaign through core.ScanMemory.
func (d *dataset) report(ctx context.Context, idx *core.Index, passes core.PassSet) (*core.SuiteReport, error) {
	const week = 7 * 24 * time.Hour
	if d.store == nil {
		return core.ScanMemory(d.mem, idx, d.start, week, passes)
	}
	so := d.snap
	so.Passes = passes
	rep, st, err := core.ScanStoreSnap(ctx, d.store, idx, d.start, week, d.workers, d.env.scanInstruments(), so)
	if err != nil {
		return nil, err
	}
	d.env.noteScan(st, rep)
	return rep, nil
}

func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}
