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
// -serve-data DIR mounts the hot-path analysis API over the dataset in
// DIR: a decoded suite stays resident in memory, advanced incrementally
// as the dataset appends, so queries never re-scan the store:
//
//	curl 'http://localhost:8080/api/v1/figures/4'             # pre-rendered figure text
//	curl 'http://localhost:8080/api/v1/quantile?p=0.5'        # per-continent medians
//	curl 'http://localhost:8080/api/v1/cdf?since=2019-09-01T00:00:00Z&until=2019-09-08T00:00:00Z'
//
// Responses carry snapshot-scoped ETags; If-None-Match returns 304.
// Pointing -serve-data at the -out directory of a running shears
// campaign serves live results while the campaign is still writing.
//
// The server logs structured leveled events (-log-format text|json,
// -log-level: internal/cmdrun's log flags and logger) and keeps the most
// recent ones in an in-memory flight recorder served at /debug/events. -debug addr serves net/http/pprof on
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
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/atlas"
	"repro/internal/cmdrun"
	"repro/internal/httpapi"
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
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		probes       = flag.Int("probes", 800, "probe census size")
		seed         = flag.Uint64("seed", 1, "world seed")
		scale        = flag.Float64("scale", 0.01, "time compression for live pings (0,1]")
		grant        = flag.String("grant", "demo=100000", "comma-separated account=credits grants")
		debug        = flag.String("debug", "", "serve net/http/pprof on this address (opt-in)")
		serveData    = flag.String("serve-data", "", "serve the analysis API (figures, quantile, cdf) from this dataset directory")
		serveRefresh = flag.Duration("serve-refresh", serve.DefaultRefresh, "least time between snapshot refresh passes for -serve-data (growth is checked 8 times per interval)")
		telemetry    cmdrun.Flags
	)
	telemetry.RegisterLog(flag.CommandLine)
	flag.Parse()
	logger, rec, err := telemetry.Logger(os.Stderr, "atlasd", flightRecorderSize)
	if err != nil {
		log.Fatal(err)
	}
	app, err := build(*probes, *seed, *scale, *grant, logger, rec)
	if err != nil {
		log.Fatal(err)
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

// app bundles the one mux every request goes through with the pieces
// shutdown and telemetry need after construction.
type app struct {
	mux       *http.ServeMux
	live      *atlas.LiveService
	registry  *obs.Registry
	metrics   *atlas.Metrics
	log       *slog.Logger
	world     *world.World
	worldSeed uint64

	// serveEngine is the query serving engine, and memBound the GC
	// bound its resident state sets, both set when -serve-data is given.
	serveEngine *serve.Engine
	memBound    *memBound
}

func build(probes int, seed uint64, scale float64, grants string, logger *slog.Logger, rec *obs.Recorder) (*app, error) {
	if logger == nil {
		logger = obs.Discard
	}
	w, err := world.Build(world.Config{Seed: seed, Probes: probes})
	if err != nil {
		return nil, err
	}
	registry := obs.NewRegistry()
	metrics := atlas.NewMetrics(registry)
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
	a := &app{mux: http.NewServeMux(), live: live, registry: registry, metrics: metrics, log: logger, world: w, worldSeed: seed}
	srv, err := atlas.NewServer(w.Platform, ledger, live, metrics, a.servingStatus)
	if err != nil {
		return nil, err
	}
	srv.Register(a.mux)
	// Zero instruments: a scrape is not counted as an API request.
	telemetry := []httpapi.Route{{Pattern: "GET /metrics", Name: "metrics", Handler: obs.MetricsHandler(registry)}}
	if rec != nil {
		telemetry = append(telemetry, httpapi.Route{Pattern: "GET /debug/events", Name: "events", Handler: obs.EventsHandler(rec)})
	}
	httpapi.Register(a.mux, httpapi.Instruments{}, telemetry)
	logger.Info("world built", "probes", w.Probes.Len(), "regions", w.Catalog.Len(), "seed", seed)
	return a, nil
}

// servingStatus is the serving slice of /api/v1/status: the engine's,
// and beside its resident bytes the heap they live in and the memory
// limit in force.
type servingStatus struct {
	serve.Status
	HeapLiveBytes    uint64 `json:"heap_live_bytes"`
	HeapGoalBytes    uint64 `json:"heap_goal_bytes"`
	MemoryLimitBytes int64  `json:"memory_limit_bytes"`
}

// servingStatus feeds /api/v1/status the serving engine's snapshot
// coverage and memory; nil (omitted from the JSON) when -serve-data is
// off.
func (a *app) servingStatus() any {
	if a.serveEngine == nil {
		return nil
	}
	m := readMem()
	return servingStatus{
		Status:        a.serveEngine.Status(),
		HeapLiveBytes: m.live, HeapGoalBytes: m.goal, MemoryLimitBytes: m.limit,
	}
}

// enableServing adds the hot-path analysis API over the dataset in dir
// to the mux: a resident decoded suite, advanced by a background refresher,
// answers figure/quantile/cdf queries without cold scans. The dataset
// may still be growing — e.g. a shears campaign writing into the same
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
	logger := a.log.With("component", "serve")
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
	a.memBound = startMemBound(newMemGauges(a.registry))
	eng.Register(a.mux)
	st := eng.Status()
	logger.Info("serving enabled",
		"dir", dir, "refresh", refresh,
		"covered_bytes", st.CoveredBytes, "samples", st.Samples)
	return nil
}

// closeServing stops the memory bound and the serving refresher and
// releases the refresher's read handle; without -serve-data it does
// nothing.
func (a *app) closeServing() error {
	if a.serveEngine == nil {
		return nil
	}
	a.memBound.Close()
	return a.serveEngine.Close()
}

// shutdownTimeout bounds how long a graceful shutdown waits for in-flight
// requests and running measurements.
const shutdownTimeout = 10 * time.Second

// readHeaderTimeout bounds how long each of atlasd's listeners waits for
// a request's headers.
const readHeaderTimeout = 5 * time.Second

// newHTTPServer is the API listener's server: every phase of a
// connection is bounded, so a client that stalls its headers, trickles a
// body, never reads its response or parks an idle keep-alive cannot pin
// a goroutine and its buffers forever. The write bound leaves a window
// fill its whole deadline and still gets the 504 out.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      serve.DefaultFillTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveApp runs the HTTP server (and the optional pprof listener) until
// SIGINT/SIGTERM, then shuts down gracefully.
func serveApp(a *app, addr, debugAddr string) error {
	httpSrv := newHTTPServer(addr, a.mux)
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
	if cerr := a.closeServing(); cerr != nil && err == nil {
		err = cerr
	}
	logFinal(a.metrics, a.log)
	return err
}

// logFinal emits the final telemetry summary so a terminated server
// leaves its last counters in the log.
func logFinal(m *atlas.Metrics, logger *slog.Logger) {
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

// newDebugServer serves the pprof profiling handlers. The header bound
// stops a client that never finishes its request from holding a
// connection; there is no write bound, because /debug/pprof/profile and
// /debug/pprof/trace stream for as long as the client asks.
func newDebugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
}

// serveDebug exposes the pprof profiling handlers on their own listener.
func serveDebug(addr string, logger *slog.Logger) {
	logger.Info("pprof listening", "url", "http://"+addr+"/debug/pprof/")
	if err := newDebugServer(addr).ListenAndServe(); err != nil {
		logger.Error("debug server failed", "error", err)
	}
}
