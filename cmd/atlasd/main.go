// Command atlasd runs the measurement platform server: the RIPE-Atlas-like
// HTTP API over the simulated probe fleet and cloud regions. Live
// measurements traverse the full echo/ping stack over the virtual network.
//
// Usage:
//
//	atlasd -addr :8080 -probes 800 -grant demo=100000 -scale 0.01
//
// Then, e.g.:
//
//	curl 'http://localhost:8080/api/v1/probes?country=DE&tag=wifi&limit=3'
//	curl 'http://localhost:8080/api/v1/regions'
//	curl 'http://localhost:8080/api/v1/status'     # platform snapshot
//	curl 'http://localhost:8080/metrics'           # Prometheus exposition
//	curl 'http://localhost:8080/debug/events'      # flight-recorder dump
//
// -cluster-out DIR additionally embeds a campaign coordinator
// (internal/cluster): the cluster control-plane endpoints are served
// under /api/v1/cluster/ on the same listener, worker agents
// (cmd/agent) register and lease shards against this server, and the
// merged dataset grows in DIR — byte-identical to a single-process
// shears run. The coordinator checkpoints its merge watermark into
// DIR/checkpoint.json and auto-resumes from it on restart, so killing
// and restarting atlasd mid-campaign loses nothing durable.
// -cluster-shards and -cluster-days shape the campaign plan.
//
// -serve-data DIR mounts the hot-path analysis API over the dataset in
// DIR: a decoded suite stays resident in memory, advanced incrementally
// as the dataset appends, so queries never re-scan the store:
//
//	curl 'http://localhost:8080/api/v1/figures/4'             # pre-rendered figure JSON
//	curl 'http://localhost:8080/api/v1/quantile?p=0.5'        # per-continent medians
//	curl 'http://localhost:8080/api/v1/cdf?since=2019-09-01T00:00:00Z&until=2019-09-08T00:00:00Z'
//
// Responses carry snapshot-scoped ETags; If-None-Match returns 304.
// Pointing -serve-data at the -cluster-out directory serves live
// results while the campaign is still merging.
//
// The server logs structured leveled events (-log-format text|json,
// -log-level) and keeps the most recent ones in an in-memory flight
// recorder served at /debug/events. -debug addr serves net/http/pprof on
// a separate listener (opt-in, keep it off public interfaces).
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests
// finish, running measurements settle, and a final metrics summary is
// logged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/atlas"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/serve"
	"repro/internal/world"
)

// flightRecorderSize is how many recent log events /debug/events retains.
const flightRecorderSize = 256

func main() {
	log.SetFlags(0)
	log.SetPrefix("atlasd: ")
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		probes        = flag.Int("probes", 800, "probe census size")
		seed          = flag.Uint64("seed", 1, "world seed")
		scale         = flag.Float64("scale", 0.01, "time compression for live pings (0,1]")
		grant         = flag.String("grant", "demo=100000", "comma-separated account=credits grants")
		debug         = flag.String("debug", "", "serve net/http/pprof on this address (opt-in)")
		clusterOut    = flag.String("cluster-out", "", "embed a campaign coordinator writing the merged dataset into this directory")
		clusterShards = flag.Int("cluster-shards", 0, "cluster partition width (0 = default; output is identical for any value)")
		clusterDays   = flag.Int("cluster-days", 0, "override the cluster campaign length in days (0 = config default)")
		serveData     = flag.String("serve-data", "", "serve the analysis API (figures, quantile, cdf) from this dataset directory")
		serveRefresh  = flag.Duration("serve-refresh", serve.DefaultRefresh, "least time between snapshot refresh passes for -serve-data (growth is checked 8 times per interval)")
		logFormat     = flag.String("log-format", "text", "structured log encoding: text (logfmt) or json")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	)
	flag.Parse()
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	format, err := obs.ParseLogFormat(*logFormat)
	if err != nil {
		log.Fatal(err)
	}
	rec := obs.NewRecorder(flightRecorderSize)
	logger := obs.NewLogger(os.Stderr,
		obs.WithLogFormat(format), obs.WithLogLevel(level), obs.WithRecorder(rec),
	).With("atlasd")
	app, err := build(*probes, *seed, *scale, *grant, logger, rec)
	if err != nil {
		log.Fatal(err)
	}
	if *clusterOut != "" {
		if err := app.enableCluster(clusterOptions{
			out: *clusterOut, shards: *clusterShards, days: *clusterDays,
			seed: *seed, probes: *probes,
		}); err != nil {
			log.Fatal(err)
		}
	}
	if *serveData != "" {
		if err := app.enableServing(*serveData, *serveRefresh); err != nil {
			log.Fatal(err)
		}
	}
	if err := serveApp(app, *addr, *debug); err != nil {
		log.Fatal(err)
	}
}

// app bundles the built platform server with the pieces shutdown and
// telemetry need after construction.
type app struct {
	srv       *atlas.Server
	live      *atlas.LiveService
	registry  *obs.Registry
	metrics   *atlas.Metrics
	log       *obs.Logger
	world     *world.World
	worldSeed uint64

	// Cluster coordinator pieces, set when -cluster-out is given.
	cluster     http.Handler
	coordinator *cluster.Coordinator
	clusterSink *results.Sink

	// Query serving pieces, set when -serve-data is given.
	serveEngine *serve.Engine
	serveAPI    http.Handler
}

// ServeHTTP routes cluster control-plane requests to the embedded
// coordinator, analysis queries to the serving engine, and everything
// else to the platform API server.
func (a *app) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a.cluster != nil && strings.HasPrefix(r.URL.Path, "/api/v1/cluster/") {
		a.cluster.ServeHTTP(w, r)
		return
	}
	if a.serveAPI != nil && (strings.HasPrefix(r.URL.Path, "/api/v1/figures/") ||
		r.URL.Path == "/api/v1/quantile" || r.URL.Path == "/api/v1/cdf") {
		a.serveAPI.ServeHTTP(w, r)
		return
	}
	a.srv.ServeHTTP(w, r)
}

func build(probes int, seed uint64, scale float64, grants string, logger *obs.Logger, rec *obs.Recorder) (*app, error) {
	w, err := world.Build(world.Config{Seed: seed, Probes: probes})
	if err != nil {
		return nil, err
	}
	registry := obs.NewRegistry()
	metrics := atlas.NewMetrics(registry)
	w.Platform.Metrics = metrics
	ledger := atlas.NewLedger()
	ledger.Instrument(metrics)
	for _, g := range strings.Split(grants, ",") {
		if g == "" {
			continue
		}
		account, amount, ok := strings.Cut(g, "=")
		if !ok {
			return nil, fmt.Errorf("bad grant %q, want account=credits", g)
		}
		credits, err := strconv.ParseInt(amount, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad credit amount in %q: %v", g, err)
		}
		if err := ledger.Grant(account, credits); err != nil {
			return nil, err
		}
		logger.Info("credits granted", "account", account, "credits", credits)
	}
	live, err := atlas.NewLiveService(w.Platform, ledger, scale, atlas.WithLiveMetrics(metrics))
	if err != nil {
		return nil, err
	}
	a := &app{live: live, registry: registry, metrics: metrics, log: logger, world: w, worldSeed: seed}
	srv, err := atlas.NewServer(w.Platform, ledger, live,
		atlas.WithServerMetrics(metrics), atlas.WithServerEvents(rec),
		atlas.WithServerServing(a.servingStatus))
	if err != nil {
		return nil, err
	}
	a.srv = srv
	logger.Info("world built", "probes", w.Probes.Len(), "regions", w.Catalog.Len(), "seed", seed)
	return a, nil
}

// servingStatus feeds /api/v1/status the serving engine's snapshot
// coverage; nil (omitted from the JSON) when -serve-data is off.
func (a *app) servingStatus() any {
	if a.serveEngine == nil {
		return nil
	}
	return a.serveEngine.Status()
}

// enableServing mounts the hot-path analysis API over the dataset in
// dir: a resident decoded suite, advanced by a background refresher,
// answers figure/quantile/cdf queries without cold scans. The dataset
// may still be growing — e.g. -cluster-out pointing at the same
// directory — in which case served results track the appending tail.
func (a *app) enableServing(dir string, refresh time.Duration) error {
	store, err := results.Open(dir)
	if err != nil {
		return err
	}
	meta := store.Meta()
	if meta.Seed != 0 && meta.Probes != 0 &&
		(meta.Seed != a.worldSeed || meta.Probes != a.world.Probes.Len()) {
		return fmt.Errorf("dataset %s was captured with seed=%d probes=%d; restart atlasd with matching -seed/-probes (got seed=%d probes=%d)",
			dir, meta.Seed, meta.Probes, a.worldSeed, a.world.Probes.Len())
	}
	logger := a.log.With("serve")
	eng, err := serve.NewEngine(store, a.world.Index, serve.Options{
		Refresh:     refresh,
		TixPath:     store.TixPath(),
		Metrics:     serve.NewMetrics(a.registry),
		ScanMetrics: scan.NewMetrics(a.registry),
		Log:         logger,
	})
	if err != nil {
		return err
	}
	eng.Start(context.Background())
	a.serveEngine = eng
	a.serveAPI = eng.Handler()
	st := eng.Status()
	logger.Info("serving enabled",
		"dir", dir, "refresh", refresh,
		"covered_bytes", st.CoveredBytes, "samples", st.Samples)
	return nil
}

// clusterOptions shape the embedded coordinator's campaign plan.
type clusterOptions struct {
	out    string
	shards int
	days   int
	seed   uint64
	probes int
}

// checkpointFile is the cluster checkpoint's name inside the dataset dir.
const checkpointFile = "checkpoint.json"

// enableCluster embeds a campaign coordinator: it opens (or resumes)
// the merged dataset in opts.out and mounts the cluster control-plane
// endpoints on the server. A checkpoint left by a previous coordinator
// with the same plan fingerprint resumes automatically — the sink is
// truncated to the checkpoint's durable offset and every shard's
// watermark restarts at the merged round, exactly like an engine
// resume.
func (a *app) enableCluster(opts clusterOptions) error {
	w := a.world
	cfg := atlas.TestCampaign()
	if opts.days > 0 {
		cfg.End = cfg.Start.Add(time.Duration(opts.days) * 24 * time.Hour)
	}
	fingerprint := cfg.Fingerprint(opts.seed, w.Probes.Len())
	shards := opts.shards
	if shards <= 0 {
		shards = cluster.DefaultShards
	}
	if p := w.Platform.PublicProbes(); shards > p {
		shards = p
	}
	ckPath := filepath.Join(opts.out, checkpointFile)
	logger := a.log.With("cluster")
	var (
		sink         *results.Sink
		startRound   int
		startSamples uint64
	)
	cp, err := engine.LoadCheckpoint(ckPath)
	switch {
	case err == nil:
		if cp.Fingerprint != fingerprint {
			return fmt.Errorf("checkpoint %s belongs to a different campaign (fingerprint %s, want %s)",
				ckPath, cp.Fingerprint, fingerprint)
		}
		store, oerr := results.Open(opts.out)
		if oerr != nil {
			return oerr
		}
		sink, oerr = store.Resume(cp.SinkOffset)
		if oerr != nil {
			return oerr
		}
		startRound, startSamples = cp.Round+1, cp.Samples
		logger.Info("resuming cluster campaign",
			"rounds_done", startRound, "rounds_total", cfg.Rounds(),
			"samples", startSamples, "sink_offset", cp.SinkOffset)
	case errors.Is(err, engine.ErrNoCheckpoint):
		// No checkpoint plus an existing non-empty dataset means a
		// previous campaign finished and retired its checkpoint. Create
		// would truncate it; refuse instead of destroying a merged run.
		if st, serr := os.Stat(filepath.Join(opts.out, "samples.bin")); serr == nil && st.Size() > 0 {
			return fmt.Errorf("%s holds a completed dataset (no checkpoint to resume); move it aside to start a new campaign", opts.out)
		}
		meta := cfg.Meta(opts.seed, w.Probes.Len(), w.Catalog.Len())
		if _, sink, err = results.Create(opts.out, meta, results.FormatBinary); err != nil {
			return err
		}
	default:
		return err
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Plan: cluster.Plan{
			Fingerprint: fingerprint,
			Seed:        opts.seed,
			Probes:      opts.probes,
			Shards:      shards,
			Rounds:      cfg.Rounds(),
			Campaign:    cfg,
		},
		Sink:           sink.Write,
		Commit:         sink.Commit,
		CheckpointPath: ckPath,
		StartRound:     startRound,
		StartSamples:   startSamples,
		Metrics:        cluster.NewMetrics(a.registry),
		Log:            logger,
	})
	if err != nil {
		sink.Close()
		return err
	}
	// Once every round is merged, make the tail durable and retire the
	// checkpoint so a restart serves the finished dataset instead of
	// re-merging it.
	go func() {
		if coord.Wait(context.Background()) != nil {
			return
		}
		if _, cerr := sink.Commit(); cerr != nil {
			logger.Warn("final commit failed", "error", cerr)
			return
		}
		if rerr := os.Remove(ckPath); rerr != nil && !os.IsNotExist(rerr) {
			logger.Warn("checkpoint removal failed", "error", rerr)
		}
		logger.Info("cluster campaign complete", "samples", coord.Samples(), "out", opts.out)
	}()
	a.cluster = coord.Handler()
	a.coordinator = coord
	a.clusterSink = sink
	logger.Info("coordinator enabled",
		"out", opts.out, "shards", shards, "rounds", cfg.Rounds(),
		"start_round", startRound, "fingerprint", fingerprint)
	return nil
}

// shutdownTimeout bounds how long a graceful shutdown waits for in-flight
// requests and running measurements.
const shutdownTimeout = 10 * time.Second

// newHTTPServer is the API listener's server: every phase of a
// connection is bounded, so a client that stalls its headers, trickles a
// body, never reads its response or parks an idle keep-alive cannot pin
// a goroutine and its buffers forever. The write bound leaves a window
// fill its whole deadline and still gets the 504 out.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      serve.DefaultFillTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveApp runs the HTTP server (and the optional pprof listener) until
// SIGINT/SIGTERM, then shuts down gracefully.
func serveApp(a *app, addr, debugAddr string) error {
	httpSrv := newHTTPServer(addr, a)
	if debugAddr != "" {
		go serveDebug(debugAddr, a.log)
	}
	errc := make(chan error, 1)
	go func() {
		a.log.Info("listening", "addr", addr)
		errc <- httpSrv.ListenAndServe()
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	a.log.Info("shutting down", "drain_timeout", shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := httpSrv.Shutdown(sctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = nil // best effort: report the final counters regardless
	}
	// Let running measurement polls settle and flush the last samples.
	a.live.Close()
	// Flush the cluster dataset; an unfinished campaign resumes from the
	// last checkpoint on the next start.
	if a.clusterSink != nil {
		if cerr := a.clusterSink.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	// Stop the serving refresher and release its read handle.
	if a.serveEngine != nil {
		if cerr := a.serveEngine.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	logFinal(a.metrics, a.log)
	return err
}

// logFinal emits the final telemetry summary so a terminated server
// leaves its last counters in the log.
func logFinal(m *atlas.Metrics, logger *obs.Logger) {
	logger.Info("final counters",
		"requests", m.ReqTotal.Sum(),
		"measurements", m.MeasurementsCreated.Value(),
		"done", m.MeasurementsDone.Value(),
		"failed", m.MeasurementsFailed.Value(),
		"stopped", m.MeasurementsStopped.Value(),
		"results", m.ResultsCollected.Value(),
		"ping_timeouts", m.Ping.Timeouts.Value(),
		"credits_spent", m.CreditsSpent.Value())
}

// serveDebug exposes the pprof profiling handlers on their own listener.
func serveDebug(addr string, logger *obs.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "url", "http://"+addr+"/debug/pprof/")
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug server failed", "error", err)
	}
}
