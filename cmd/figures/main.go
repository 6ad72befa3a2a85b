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
// Observability: internal/cmdrun owns the run's logs, profiles, status
// server and, with -data, its <data>/run.figures.json manifest; the
// command adds the figure to /api/v1/progress and the figure span's
// stages (snap.load, scan, snap.merge, ...) to the manifest.
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
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/atlas"
	"repro/internal/cmdrun"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/world"
)

// options bundles the command's knobs (one field per flag; telemetry holds five).
type options struct {
	fig       string
	data      string
	probes    int
	seed      uint64
	probesSet bool // -probes was given on the command line
	seedSet   bool // -seed was given on the command line
	csv       bool
	workers   int
	snapMode  string
	telemetry cmdrun.Flags

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
	o.telemetry.Register(flag.CommandLine)
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

func run(o options) (err error) {
	r, err := cmdrun.Start(cmdrun.Config{
		Flags: o.telemetry, Binary: "figures", Events: flightRecorderSize,
		Dir: o.data, Manifest: manifestFile,
		LogDst: o.logDst, StatusReady: o.statusReady,
	})
	if err != nil {
		return err
	}
	defer func() {
		err = r.Finish(err, func(dump obs.SpanDump) error {
			// A render's throughput is its scan's: the samples it decoded,
			// at the rate it decoded them.
			m, sm := r.Manifest(), r.ScanMetrics()
			m.Samples, m.SamplesPerSec = sm.Samples.Value(), sm.SamplesPerSec.Value()
			// The figure span's children (snapshot load, scan, merge, report,
			// write) are stages too, or the table would not say where the
			// time inside figure:N went.
			for _, c := range dump.Children {
				if strings.HasPrefix(c.Name, "figure:") {
					for _, g := range c.Children {
						m.Stages = append(m.Stages, obs.StageDuration{Name: g.Name, DurationMs: g.DurationMs})
					}
				}
			}
			return nil
		})
	}()
	stdout := o.stdout
	if stdout == nil {
		stdout = os.Stdout
	}
	workers := o.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	r.Manifest().Workers = workers
	r.Span().SetAttr("fig", o.fig)
	if err := r.Serve(func(p map[string]any) { p["figure"] = o.fig }); err != nil {
		return err
	}

	logger := r.Log()
	logger.Info("rendering figure", "fig", o.fig, "data", o.data, "csv", o.csv)
	if o.beforeRender != nil {
		o.beforeRender()
	}
	lines, err := render(o, r)
	if err != nil {
		return err
	}
	emit := r.Span().Child("emit")
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
		"fig", o.fig, "lines", len(lines), "elapsed", r.Elapsed().Round(time.Millisecond))
	return nil
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
func render(o options, r *cmdrun.Run) ([]string, error) {
	f, err := o.check()
	if err != nil {
		return nil, err
	}
	ctx := obs.ContextWith(context.Background(), r.Span())
	in := &figures.Inputs{}
	if f.World {
		w, d, err := loadWorld(o, r)
		if err != nil {
			return nil, err
		}
		in.World = w
		if f.Passes != 0 {
			span := r.Span().Child("figure:" + o.fig)
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
func buildWorld(o options, r *cmdrun.Run) (*world.World, error) {
	s := r.Span().Child("world.build")
	defer s.End()
	w, err := world.Build(world.Config{Seed: o.seed, Probes: o.probes})
	if err != nil {
		return nil, err
	}
	r.Log().Info("world built",
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
	run     *cmdrun.Run          // the run's telemetry; nil disables
}

// loadWorld resolves, in one place for every figure that needs one, the
// world a run analyses under, and opens the stored dataset when -data
// names one. A stored dataset's figures come from the world its
// meta.json records unless -probes/-seed say otherwise on the command
// line; a world that differs from the dataset's classifies its samples
// differently, so such a run warns and stays away from samples.snap,
// which is bound to the dataset's world.
func loadWorld(o options, r *cmdrun.Run) (*world.World, *dataset, error) {
	d := &dataset{workers: o.workers, run: r}
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
			Metrics:       r.SnapMetrics(),
			Log:           r.Log().With("component", "snap"),
		}
		own := o.probes == meta.Probes && o.seed == meta.Seed
		if !own {
			r.Log().Warn("world differs from the dataset's; samples.snap is left alone",
				"probes", o.probes, "seed", o.seed, "dataset_probes", meta.Probes, "dataset_seed", meta.Seed)
		}
		enabled := own && o.snapMode != "off"
		if enabled {
			d.snap.Path = store.SnapshotPath()
		}
		r.Log().Info("dataset opened",
			"dir", o.data, "snapshot", enabled)
	}
	w, err := buildWorld(o, r)
	return w, d, err
}

// synthesize stands in for a stored dataset: a fresh test-scale
// campaign over w, held in memory.
func (d *dataset) synthesize(ctx context.Context, w *world.World) error {
	cfg := atlas.TestCampaign()
	s := d.run.Span().Child("campaign.synthesize")
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
	rep, st, err := core.ScanStoreSnap(ctx, d.store, idx, d.start, week, d.workers, d.run.ScanMetrics(), so)
	if err != nil {
		return nil, err
	}
	d.run.NoteScan(st, rep)
	return rep, nil
}

func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}
