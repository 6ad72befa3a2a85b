package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/serve"
	"repro/internal/snap"
	"repro/internal/tix"
	"repro/internal/world"
)

// The traced run composes the pipeline the binaries wire up, in this
// process, from the layers' public functions, with a span around each
// call. Ops of one workload shape share the span name "op:<workload>";
// a layer's spans are the op's children. Isolated layer probes (a
// discard-sink campaign, a counting scan pass) sit outside any op.
// End-to-end metrics never come from here: they are measured untraced,
// in the child processes.

const opPrefix = "op:"

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianMs(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = ms(d)
	}
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// discard is a ResponseWriter that drops the body, so a handler span
// times the handler and not buffer growth.
type discard struct {
	h      http.Header
	status int
	n      int
}

func newDiscard() *discard             { return &discard{h: http.Header{}} }
func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(c int)   { d.status = c }
func (d *discard) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += len(p)
	return len(p), nil
}

// paperRun is what composePaperRun leaves behind.
type paperRun struct {
	w        *world.World
	cfg      atlas.CampaignConfig
	store    *results.Store
	samples  uint64
	updates  []time.Duration // one per checkpoint snapshot fold
	snapOut  int64           // snapshot bytes written over the run
	tixNodes int
	report   *core.SuiteReport
}

// composePaperRun is cmd/shears' run() for `-full -days D -figdir F
// -out O -workers 2`, call for call, with a span around each layer. A
// parity test pins its samples.bin and figure CSVs to the shears
// child's, so this composition cannot drift from the real wiring
// unnoticed.
func composePaperRun(ctx context.Context, op *obs.Span, days int, out, figdir string) (*paperRun, error) {
	sp := op.Child("world.build")
	w, err := world.Build(world.Config{Seed: worldSeed, Probes: paperProbes})
	sp.End()
	if err != nil {
		return nil, err
	}
	cfg := atlas.PaperCampaign()
	cfg.End = cfg.Start.Add(time.Duration(days) * 24 * time.Hour)
	pr := &paperRun{w: w, cfg: cfg}

	store, sink, err := results.Create(out, cfg.Meta(worldSeed, w.Probes.Len(), w.Catalog.Len()), results.FormatBinary)
	if err != nil {
		return nil, err
	}
	pr.store = store
	snapMetrics := snap.NewMetrics(obs.NewRegistry())
	snapOpts := core.SnapshotOptions{
		Path:          store.SnapshotPath(),
		Metrics:       snapMetrics,
		RefreshFactor: core.DefaultRefreshFactor,
	}
	camp := op.Child("engine.campaign")
	ckPath := filepath.Join(out, "checkpoint.json")
	opts := atlas.CampaignOptions{
		Workers:         childProcs,
		Fingerprint:     cfg.Fingerprint(worldSeed, w.Probes.Len()),
		CheckpointPath:  ckPath,
		CheckpointEvery: epochRounds,
		Commit: func() (int64, error) {
			s := camp.Child("results.commit")
			defer s.End()
			return sink.Commit()
		},
		OnCheckpoint: func(round int, offset int64) {
			s := camp.Child("snap.update")
			before := snapMetrics.Writes.Value()
			_, uerr := core.UpdateSnapshot(ctx, store, w.Index, cfg.Start, binWidth, childProcs, nil, snapOpts)
			s.End()
			if uerr != nil && err == nil {
				err = fmt.Errorf("snapshot update at round %d: %w", round, uerr)
			}
			pr.updates = append(pr.updates, s.Duration())
			if snapMetrics.Writes.Value() > before {
				pr.snapOut += fileSize(store.SnapshotPath())
			}
		},
	}
	n, runErr := w.Platform.RunCampaignOpts(obs.ContextWith(ctx, camp), cfg, opts, sink.Write)
	camp.End()
	pr.samples = n
	if runErr != nil {
		sink.Close()
		return nil, runErr
	}
	if err != nil {
		sink.Close()
		return nil, err
	}
	sp = op.Child("results.close")
	err = sink.Close()
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := os.Remove(ckPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	sp = op.Child("tix.build")
	ix, sf, blocks, err := openTix(store, w.Index)
	if err == nil {
		err = ix.Extend(sf, blocks, w.Index)
		pr.tixNodes = ix.Nodes()
		ix.Close()
		sf.Close()
	}
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = op.Child("scan.fused")
	pr.report, _, err = core.ScanStoreSnap(obs.ContextWith(ctx, sp), store, w.Index, cfg.Start, binWidth, childProcs, nil, snapOpts)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = op.Child("figures.render")
	err = writeFigureCSVs(figdir, pr.report)
	sp.End()
	return pr, err
}

// openTix opens the store's temporal index sidecar against its current
// block list, with the read handle queries and extends need.
func openTix(store *results.Store, idx *core.Index) (*tix.Index, *os.File, []colf.BlockInfo, error) {
	blocks, err := storeBlocks(store)
	if err != nil {
		return nil, nil, nil, err
	}
	sf, err := os.Open(store.SamplesPath())
	if err != nil {
		return nil, nil, nil, err
	}
	ix, err := tix.Open(store.TixPath(), tix.Binding{
		PassSet: tix.PassSetCDF,
		Index:   idx.Fingerprint(),
		Meta:    core.MetaFingerprint(store.Meta()),
	}, blocks, nil)
	if err != nil {
		sf.Close()
		return nil, nil, nil, err
	}
	return ix, sf, blocks, nil
}

// figureCSV renders one dataset figure the way shears' -figdir and
// figures -csv do.
func figureCSV(name string, w io.Writer, rep *core.SuiteReport) error {
	switch name {
	case "figure4.csv":
		return figures.Figure4CSV(w, rep.Proximity)
	case "figure5.csv":
		return figures.CDFCSV(w, rep.MinRTT)
	case "figure6.csv":
		return figures.CDFCSV(w, rep.FullDist)
	case "figure7.csv":
		return figures.Figure7CSV(w, rep.LastMile)
	case "figure8.csv":
		rep8, _, err := figures.Figure8(rep.LastMile, apps.Paper())
		if err != nil {
			return err
		}
		return figures.Figure8CSV(w, rep8)
	}
	return fmt.Errorf("no CSV form for %s", name)
}

func writeFigureCSVs(dir string, rep *core.SuiteReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range figureCSVs {
		var buf bytes.Buffer
		if err := figureCSV(name, &buf, rep); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// countPass counts rows through the columnar fast path; with zones it
// also absorbs fully covered blocks from their pre-aggregates, the way
// `dataset -fast stats` does.
type countPass struct {
	rows  uint64
	zones bool
}

func (p *countPass) Observe(results.Sample) error { p.rows++; return nil }
func (p *countPass) Merge(o scan.Pass) error      { p.rows += o.(countRows).count(); return nil }
func (p *countPass) Columns() colf.ColumnSet      { return colf.ColTime | colf.ColRegionIDs }
func (p *countPass) ObserveBlock(b *colf.Block) error {
	p.rows += uint64(b.Rows())
	return nil
}
func (p *countPass) count() uint64 { return p.rows }

type countRows interface{ count() uint64 }

// zoneCountPass is countPass plus the zone fast path.
type zoneCountPass struct{ countPass }

func (p *zoneCountPass) CanObserveZone(colf.Zone) bool { return true }
func (p *zoneCountPass) ObserveZone(z colf.Zone) error { p.rows += uint64(z.Rows); return nil }

func countScan(ctx context.Context, store *results.Store, workers int, pred *colf.Predicate, zones bool) (scan.Stats, error) {
	return scan.File(ctx, scan.Config{
		Path:      store.SamplesPath(),
		Workers:   workers,
		Predicate: pred,
		NewPasses: func(int) ([]scan.Pass, error) {
			if zones {
				return []scan.Pass{&zoneCountPass{}}, nil
			}
			return []scan.Pass{&countPass{}}, nil
		},
	})
}

// tracer accumulates the traced run's spans and metric values.
type tracer struct {
	root    *obs.Span
	metrics map[string]float64
	res     *result
}

func (t *tracer) set(name string, v float64) { t.metrics[name] = v }

// selfRatio is a shape's unattributed share: the time inside its op
// spans that no child (layer) span covers.
func selfRatio(d obs.SpanDump, shape string) (ratio float64, ops int) {
	var total, covered float64
	var walk func(obs.SpanDump)
	walk = func(s obs.SpanDump) {
		if s.Name == opPrefix+shape {
			ops++
			total += s.DurationMs
			for _, c := range s.Children {
				covered += c.DurationMs
			}
			return
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(d)
	if total == 0 {
		return 0, 0
	}
	return (total - covered) / total, ops
}

func runTraced(ctx context.Context, e *env, name string, seed uint64, sz sizing, traceOut string) (*result, error) {
	dir, err := e.tempDir("trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &tracer{root: obs.NewTrace("bench.trace"), metrics: map[string]float64{}, res: &result{Correct: true}}
	t.root.SetAttr("seed", seed)
	t.root.SetAttr("workload", name)

	camp, err := newCampaign()
	if err != nil {
		return nil, err
	}
	paperRounds := sz.traceEpochs * epochRounds
	all, err := camp.rounds(ctx, 0, paperRounds+epochRounds+sz.traceIngest*sz.ingRounds)
	if err != nil {
		return nil, err
	}

	if err := t.layerProbes(ctx, camp, all[:paperRounds], dir, sz); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	pr, err := t.paperShape(ctx, sz, dir)
	if err != nil {
		return nil, fmt.Errorf("paper_run shape: %w", err)
	}
	if err := t.reanalyzeShape(ctx, pr, all[paperRounds:paperRounds+epochRounds], seed); err != nil {
		return nil, fmt.Errorf("reanalyze shape: %w", err)
	}
	rounds := paperRounds + epochRounds
	if err := t.serveWindowsShape(ctx, pr, camp.roundTime(rounds), seed, sz); err != nil {
		return nil, fmt.Errorf("serve_windows shape: %w", err)
	}
	if err := t.serveIngestShape(ctx, pr, camp, all[rounds:], rounds, seed, sz); err != nil {
		return nil, fmt.Errorf("serve_ingest shape: %w", err)
	}

	t.root.End()
	dump := t.root.Dump()
	for _, w := range workloadSpecs {
		ratio, ops := selfRatio(dump, w.Name)
		t.res.notef("unattributed ratio of the %s shape: %.4f over %d traced ops", w.Name, ratio, ops)
		t.res.Attempted += ops
		if w.Name == name {
			t.set("bench.unattributed_ratio", ratio)
		}
	}
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return nil, err
	}
	if err := obs.WriteChromeTraceDump(f, dump); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing %s: %w", traceOut, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	t.res.notef("Chrome trace written to %s", traceOut)
	t.res.Metrics = t.metrics
	return t.res, nil
}

// layerProbes measures the write-side layers in isolation: the latency
// model, the engine into a discard sink, and the sink fed pre-generated
// samples.
func (t *tracer) layerProbes(ctx context.Context, camp *campaign, rounds [][]results.Sample, dir string, sz sizing) error {
	probes := t.root.Child("layer.probes")
	defer probes.End()

	// netem: Path.RTT over a seeded probe x region set.
	sp := probes.Child("netem.path_rtt")
	public := camp.w.Probes.Public()
	r := newRNG(worldSeed, "trace.netem")
	type leg struct {
		p interface {
			RTT(time.Time) (float64, bool)
		}
		at time.Time
	}
	legs := make([]leg, 0, 512)
	for len(legs) < cap(legs) {
		p := public[r.intn(int64(len(public)))]
		targets := camp.w.Platform.Targets(p)
		if len(targets) == 0 {
			continue
		}
		path, err := camp.w.Platform.Path(p, targets[r.intn(int64(len(targets)))])
		if err != nil {
			return err
		}
		legs = append(legs, leg{path, camp.cfg.RoundTime(int(r.intn(int64(camp.cfg.Rounds()))))})
	}
	var sink float64
	t0 := time.Now()
	for i := 0; i < sz.tracePathRTTs; i++ {
		l := legs[i%len(legs)]
		v, _ := l.p.RTT(l.at)
		sink += v
	}
	t.set("netem.path_rtt_ns", float64(time.Since(t0))/float64(sz.tracePathRTTs))
	sp.SetAttr("rtt_sum", sink)
	sp.End()

	// engine: the campaign into a discard sink, two workers.
	sp = probes.Child("engine.generate")
	cfg := camp.cfg
	cfg.End = camp.roundTime(len(rounds))
	em := engine.NewMetrics(obs.NewRegistry())
	t0 = time.Now()
	n, err := camp.w.Platform.RunCampaignOpts(ctx, cfg, atlas.CampaignOptions{Workers: childProcs, EngineMetrics: em},
		func(results.Sample) error { return nil })
	el := time.Since(t0)
	sp.End()
	if err != nil {
		return err
	}
	t.set("engine.generate_samples_per_s", float64(n)/el.Seconds())
	t.set("engine.queue_depth_peak", em.QueueDepthPeak.Value())

	// results: Sink.Write of the pre-generated samples, Commit per epoch.
	sp = probes.Child("results.write")
	defer sp.End()
	_, wsink, err := results.Create(filepath.Join(dir, "sinkprobe"), camp.meta(), results.FormatBinary)
	if err != nil {
		return err
	}
	defer wsink.Close()
	var writing time.Duration
	var commits []time.Duration
	for i := 0; i < len(rounds); i += epochRounds {
		t0 = time.Now()
		for _, batch := range rounds[i:min(i+epochRounds, len(rounds))] {
			for _, s := range batch {
				if err := wsink.Write(s); err != nil {
					return err
				}
			}
		}
		t1 := time.Now()
		if _, err := wsink.Commit(); err != nil {
			return err
		}
		writing += t1.Sub(t0)
		commits = append(commits, time.Since(t1))
	}
	t.set("results.write_mb_per_s", float64(wsink.BytesWritten())/1e6/writing.Seconds())
	t.set("results.commit_ms", medianMs(commits))
	return nil
}

// paperShape is the paper_run op: one whole shears run, composed here.
func (t *tracer) paperShape(ctx context.Context, sz sizing, dir string) (*paperRun, error) {
	op := t.root.Child(opPrefix + "paper_run")
	pr, err := composePaperRun(ctx, op, sz.traceEpochs*epochRounds/8, filepath.Join(dir, "ds"), filepath.Join(dir, "fig"))
	op.End()
	if err != nil {
		return nil, err
	}
	d := op.Dump()
	for _, c := range d.Children {
		switch c.Name {
		case "world.build":
			t.set("world.build_ms", c.DurationMs)
		case "tix.build":
			t.set("tix.build_ms", c.DurationMs)
		case "figures.render":
			t.set("figures.render_ms", c.DurationMs)
		}
	}
	if len(pr.updates) == 0 {
		return nil, fmt.Errorf("no checkpoint in a %d-epoch campaign", sz.traceEpochs)
	}
	var total time.Duration
	for _, u := range pr.updates {
		total += u
	}
	data := float64(fileSize(pr.store.SamplesPath()))
	n := float64(pr.samples)
	t.set("snap.update_first_ms", ms(pr.updates[0]))
	t.set("snap.update_last_ms", ms(pr.updates[len(pr.updates)-1]))
	t.set("snap.update_total_s", total.Seconds())
	t.set("snap.bytes_written_per_data_byte", float64(pr.snapOut)/data)
	t.set("snap.file_bytes_per_sample", float64(fileSize(pr.store.SnapshotPath()))/n)
	t.set("tix.nodes", float64(pr.tixNodes))
	t.set("tix.file_bytes_per_sample", float64(fileSize(pr.store.TixPath()))/n)
	t.set("colf.bytes_per_sample", data/n)
	return pr, nil
}

// reanalyzeShape is the reanalyze op — what the figures and dataset
// CLIs do over a stored dataset after an epoch landed — preceded by the
// read-side probes that need the store as paper_run left it.
func (t *tracer) reanalyzeShape(ctx context.Context, pr *paperRun, epoch [][]results.Sample, seed uint64) error {
	idx, start := pr.w.Index, pr.cfg.Start
	snapMetrics := snap.NewMetrics(obs.NewRegistry())
	so := core.SnapshotOptions{Path: pr.store.SnapshotPath(), RefreshFactor: core.DefaultRefreshFactor, Metrics: snapMetrics}

	probes := t.root.Child("layer.probes")
	// Full snapshot, nothing appended: load + report, zero blocks decoded.
	sp := probes.Child("snap.load")
	_, _, err := core.ScanStoreSnap(ctx, pr.store, idx, start, binWidth, childProcs, nil, so)
	sp.End()
	if err != nil {
		return err
	}
	t.set("snap.load_ms", ms(sp.Duration()))

	hot, err := core.NewHotSuite(pr.store, idx, start, binWidth, so)
	if err != nil {
		return err
	}
	sp = probes.Child("core.suite_report")
	_, err = hot.Report()
	sp.End()
	if err != nil {
		return err
	}
	t.set("core.suite_report_ms", ms(sp.Duration()))

	sp = probes.Child("scan.cold_w1")
	_, st, err := core.ScanStore(ctx, pr.store, idx, start, binWidth, 1, nil)
	sp.End()
	if err != nil {
		return err
	}
	t.set("scan.cold_samples_per_s_w1", st.SamplesPerSec())

	sp = probes.Child("colf.decode")
	st, err = countScan(ctx, pr.store, 1, nil, false)
	sp.End()
	if err != nil {
		return err
	}
	t.set("colf.decode_rows_per_s", st.SamplesPerSec())

	span := pr.cfg.End.Sub(start)
	pred := &colf.Predicate{Since: start.Add(span / 4).Add(time.Hour), Until: start.Add(span * 3 / 4).Add(time.Hour)}
	sp = probes.Child("scan.zone")
	st, err = countScan(ctx, pr.store, childProcs, pred, true)
	sp.End()
	if err != nil {
		return err
	}
	t.set("scan.zone_resolved_ratio", float64(st.BlocksZone)/float64(max(st.BlocksTotal-st.BlocksSkipped, 1)))
	probes.End()

	// New data lands, untimed.
	before := fileSize(pr.store.SamplesPath())
	sink, err := reopenForAppend(pr.store)
	if err != nil {
		return err
	}
	n, _, err := writeRounds(sink, epoch)
	if err == nil {
		err = sink.Close()
	}
	if err != nil {
		return err
	}
	pr.samples += n
	appended := fileSize(pr.store.SamplesPath()) - before

	op := t.root.Child(opPrefix + "reanalyze")
	defer op.End()
	sp = op.Child("snap.resume")
	writes := snapMetrics.Writes.Value()
	rep, st, err := core.ScanStoreSnap(obs.ContextWith(ctx, sp), pr.store, idx, start, binWidth, childProcs, nil, so)
	sp.End()
	if err != nil {
		return err
	}
	t.set("snap.resume_ms", ms(sp.Duration()))
	t.set("snap.resume_blocks_read", float64(st.BlocksRead))
	var rewritten int64
	if snapMetrics.Writes.Value() > writes {
		rewritten = fileSize(pr.store.SnapshotPath())
	}
	t.set("snap.rewrite_ratio", float64(rewritten)/float64(max(appended, 1)))

	sp = op.Child("scan.cold_w2")
	cold, st, err := core.ScanStore(obs.ContextWith(ctx, sp), pr.store, idx, start, binWidth, childProcs, nil)
	sp.End()
	if err != nil {
		return err
	}
	t.set("scan.cold_samples_per_s_w2", st.SamplesPerSec())

	sp = op.Child("scan.window")
	st, err = countScan(obs.ContextWith(ctx, sp), pr.store, childProcs, pred, false)
	sp.End()
	if err != nil {
		return err
	}
	t.set("scan.window_blocks_decoded_ratio", float64(st.BlocksRead)/float64(max(st.BlocksTotal, 1)))

	sp = op.Child("tix.open")
	ix, sf, blocks, err := openTix(pr.store, idx)
	sp.End()
	if err != nil {
		return err
	}
	defer sf.Close()
	defer ix.Close()
	t.set("tix.open_ms", ms(sp.Duration()))
	sp = op.Child("tix.extend")
	frontier := ix.Frontier()
	err = ix.Extend(sf, blocks, idx)
	sp.End()
	if err != nil {
		return err
	}
	t.set("tix.extend_ms_per_block", ms(sp.Duration())/float64(max(len(blocks)-frontier, 1)))
	sp = op.Child("tix.query")
	w := seededWindows(newRNG(seed, "trace.reanalyze"), start, pr.cfg.End, 1)[0]
	_, err = ix.View().Query(ctx, sf, blocks, w.Since, w.Until, idx)
	sp.End()
	if err != nil {
		return err
	}

	sp = op.Child("figures.render")
	var resumed, scanned bytes.Buffer
	err = figureCSV("figure5.csv", &resumed, rep)
	if err == nil {
		err = figureCSV("figure5.csv", &scanned, cold)
	}
	sp.End()
	if err != nil {
		return err
	}
	t.res.check(resumed.Len() > 0 && bytes.Equal(resumed.Bytes(), scanned.Bytes()),
		"snapshot-resumed Figure 5 CSV equals the cold scan's (%d bytes)", resumed.Len())
	return nil
}

// serveLocal runs h on a loopback listener until the returned stop is
// called; stop waits for the server to finish.
func serveLocal(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

func selfRSSKB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	kb, err := procStatusKB(b, "VmRSS:")
	if err != nil {
		return 0
	}
	return float64(kb)
}

func (t *tracer) newEngine(pr *paperRun, withTix bool, m *serve.Metrics) (*serve.Engine, error) {
	opt := serve.Options{Workers: childProcs, SnapshotPath: pr.store.SnapshotPath(), Metrics: m}
	if withTix {
		opt.TixPath = pr.store.TixPath()
	}
	return serve.NewEngine(pr.store, pr.w.Index, opt)
}

// serveWindowsShape is the serve_windows op — one distinct window
// through the handler — plus the probes around it: the same windows over
// a loopback connection, the index query alone, the scan fallback, and
// the cached hit path.
func (t *tracer) serveWindowsShape(ctx context.Context, pr *paperRun, end time.Time, seed uint64, sz sizing) error {
	stage := t.root.Child("serve_windows.stage")
	defer stage.End()
	m := serve.NewMetrics(obs.NewRegistry())
	sp := stage.Child("serve.open")
	eng, err := t.newEngine(pr, true, m)
	if err == nil {
		err = eng.Refresh(ctx)
	}
	sp.End()
	if err != nil {
		return err
	}
	t.set("serve.open_ms", ms(sp.Duration()))
	base, stop, err := serveLocal(eng.Handler())
	if err != nil {
		eng.Close()
		return err
	}
	client := newClient(requestTimeout)

	r := newRNG(seed, "trace.windows")
	windows := seededWindows(r, pr.cfg.Start, end, sz.traceWindows)
	paths := windowPaths(r, windows)

	// First pass, over the loopback connection with the cache admitting
	// every key: the transport-inclusive tail and what a cached window
	// costs in resident memory.
	sp = stage.Child("serve.loopback_windows")
	bodies := make([][]byte, len(paths))
	var loop latencies
	rss0 := selfRSSKB()
	for i, p := range paths {
		rep, err := timedGet(ctx, client, &loop, base+p)
		if err != nil {
			t.res.Failed++
			t.res.notef("traced window %d failed: %v", i, err)
			continue
		}
		bodies[i] = rep.Body
	}
	sp.End()
	t.set("serve.rss_kb_per_cached_window", max(selfRSSKB()-rss0, 0)/float64(len(paths)))
	t.set("serve.window_p99_ms", percentile(loop.sorted(), 0.99))

	// Second pass: the op itself, straight into the handler with the
	// cache bypassed so every window is computed again.
	h := eng.Handler()
	eng.SetCacheBypass(true)
	var handler []float64
	for i, p := range paths {
		op := stage.Child(opPrefix + "serve_windows")
		hs := op.Child("serve.handler")
		d := newDiscard()
		h.ServeHTTP(d, mustRequest(p))
		hs.End()
		op.End()
		if d.status != http.StatusOK {
			t.res.Failed++
			t.res.notef("traced window %d answered %d", i, d.status)
			continue
		}
		handler = append(handler, ms(hs.Duration()))
	}
	eng.SetCacheBypass(false)
	sort.Float64s(handler)
	t.set("serve.handler_window_p50_ms", percentile(handler, 0.5))
	t.set("serve.handler_window_p95_ms", percentile(handler, 0.95))

	// Hit path: the same cached figure and quantile over and over, first
	// straight into the handler, then over the loopback connection.
	hits := []string{"/api/v1/figures/5", "/api/v1/quantile?p=0.9"}
	for _, p := range hits { // admit both keys
		h.ServeHTTP(newDiscard(), mustRequest(p))
	}
	hit0, miss0 := m.CacheHits.Value(), m.CacheMisses.Value()
	sp = stage.Child("serve.hit_handler")
	reqs := []*http.Request{mustRequest(hits[0]), mustRequest(hits[1])}
	t0 := time.Now()
	for i := 0; i < sz.traceHits; i++ {
		h.ServeHTTP(newDiscard(), reqs[i%2])
	}
	t.set("serve.handler_hit_us", float64(time.Since(t0))/float64(time.Microsecond)/float64(sz.traceHits))
	sp.End()
	sp = stage.Child("serve.hit_loopback")
	var hitLoop latencies
	for i := 0; i < sz.traceHits/10; i++ {
		if _, err := timedGet(ctx, client, &hitLoop, base+hits[i%2]); err != nil {
			t.res.Failed++
		}
	}
	sp.End()
	t.set("serve.loopback_hit_us", percentile(hitLoop.sorted(), 0.5)*1000)
	dh, dm := m.CacheHits.Value()-hit0, m.CacheMisses.Value()-miss0
	t.set("serve.cache_hit_ratio", float64(dh)/float64(max(dh+dm, 1)))

	client.CloseIdleConnections()
	stop()
	if err := eng.Close(); err != nil {
		return err
	}

	// The index query alone, over the same window sequence.
	ix, sf, blocks, err := openTix(pr.store, pr.w.Index)
	if err != nil {
		return err
	}
	defer sf.Close()
	defer ix.Close()
	view := ix.View()
	sp = stage.Child("tix.query")
	var all, narrow, wide []float64
	var nodes, edges int
	for _, w := range windows {
		t0 := time.Now()
		res, err := view.Query(ctx, sf, blocks, w.Since, w.Until, pr.w.Index)
		d := ms(time.Since(t0))
		if err != nil {
			sp.End()
			return err
		}
		all = append(all, d)
		nodes += res.Stats.Nodes
		edges += res.Stats.EdgeBlocks
		switch {
		case w.width() < narrowWindow:
			narrow = append(narrow, d)
		case w.width() > end.Sub(pr.cfg.Start)/3:
			wide = append(wide, d)
		}
	}
	sp.End()
	for _, s := range [][]float64{all, narrow, wide} {
		sort.Float64s(s)
	}
	t.set("tix.query_p50_ms", percentile(all, 0.5))
	t.set("tix.query_p95_ms", percentile(all, 0.95))
	t.set("tix.query_nodes_mean", float64(nodes)/float64(len(windows)))
	t.set("tix.query_edge_blocks_mean", float64(edges)/float64(len(windows)))
	t.set("tix.query_narrow_ms", orZero(percentile(narrow, 0.5)))
	t.set("tix.query_wide_ms", orZero(percentile(wide, 0.5)))

	// Scan fallback: an engine with no index over every fifth window;
	// its bodies are also the output check for the index path.
	ref, err := t.newEngine(pr, false, nil)
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := ref.Refresh(ctx); err != nil {
		return err
	}
	sp = stage.Child("serve.scan_fallback")
	rh := ref.Handler()
	var scanMs []float64
	checked, matched := 0, 0
	for i := 0; i < len(paths); i += 5 {
		rec := &recorder{discard: newDiscard()}
		t0 := time.Now()
		rh.ServeHTTP(rec, mustRequest(paths[i]))
		scanMs = append(scanMs, ms(time.Since(t0)))
		if bodies[i] != nil {
			checked++
			if bytes.Equal(rec.body.Bytes(), bodies[i]) {
				matched++
			}
		}
	}
	sp.End()
	sort.Float64s(scanMs)
	t.set("serve.handler_window_scan_p50_ms", percentile(scanMs, 0.5))
	t.res.check(matched == checked, "%d of %d index-path window bodies equal the scan-fallback engine's", matched, checked)
	return nil
}

// narrowWindow bounds the windows tix.query_narrow_ms covers;
// tix.query_wide_ms covers those wider than a third of the stored span
// (30 days on the 90-day store the issue sized on).
const narrowWindow = 3 * 24 * time.Hour

func orZero(v float64) float64 {
	if math.IsNaN(v) { // no window fell in the class
		return 0
	}
	return v
}

// recorder keeps the body a handler wrote, for output checks.
type recorder struct {
	*discard
	body bytes.Buffer
}

func (r *recorder) Write(p []byte) (int, error) {
	r.body.Write(p)
	return r.discard.Write(p)
}

func mustRequest(path string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		panic(err) // paths are built by this package
	}
	return req
}

// serveIngestShape is the serve_ingest op: after each appended batch,
// one Refresh (hot-suite advance, figure re-render, index Extend,
// publish) and the panel reads, straight into the handler.
func (t *tracer) serveIngestShape(ctx context.Context, pr *paperRun, camp *campaign, batches [][]results.Sample, rounds int, seed uint64, sz sizing) error {
	stage := t.root.Child("serve_ingest.stage")
	defer stage.End()
	sink, err := reopenForAppend(pr.store)
	if err != nil {
		return err
	}
	defer sink.Close()
	eng, err := t.newEngine(pr, true, serve.NewMetrics(obs.NewRegistry()))
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.Refresh(ctx); err != nil {
		return err
	}
	h := eng.Handler()
	hist := newRNG(seed, "trace.ingest")
	var refreshes []time.Duration
	var fresh uint64
	for i := 0; i+sz.ingRounds <= len(batches); i += sz.ingRounds {
		n, _, err := writeRounds(sink, batches[i:i+sz.ingRounds])
		if err != nil {
			return err
		}
		rounds += sz.ingRounds
		fresh += n
		pr.samples += n

		op := stage.Child(opPrefix + "serve_ingest")
		sp := op.Child("serve.refresh")
		err = eng.Refresh(obs.ContextWith(ctx, sp))
		sp.End()
		if err != nil {
			op.End()
			return err
		}
		refreshes = append(refreshes, sp.Duration())
		newest := camp.roundTime(rounds)
		windows := append(trailingWindows(newest, sz.ingTrailing),
			seededWindows(hist, pr.cfg.Start, newest, sz.ingHistoric)...)
		for _, p := range append(append([]string{"/api/v1/figures/4"}, panelFixed...), windowPaths(hist, windows)...) {
			sp := op.Child("serve.handler")
			d := newDiscard()
			h.ServeHTTP(d, mustRequest(p))
			sp.End()
			if d.status != http.StatusOK {
				t.res.Failed++
				t.res.notef("traced panel %s answered %d", p, d.status)
			}
		}
		op.End()
	}
	if st := eng.Status(); st.Samples != pr.samples {
		t.res.check(false, "traced engine serves %d samples, %d were written", st.Samples, pr.samples)
	}
	var total time.Duration
	for _, d := range refreshes {
		total += d
	}
	t.set("serve.refresh_ms", medianMs(refreshes))
	t.set("serve.refresh_samples_per_s", float64(fresh)/total.Seconds())
	return nil
}
