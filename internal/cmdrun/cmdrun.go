// Package cmdrun owns a command run's telemetry from Start to Finish:
// the telemetry flags, logger and flight recorder, CPU and heap profiles,
// registry with the snap and scan instruments, run manifest, root span
// and status server. cmd/atlasd takes only the log flags and Logger. It
// cannot live in internal/obs: it writes the manifest through
// snap.ReplaceFile and builds snap's instruments, and snap imports obs.
package cmdrun

import (
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/snap"
)

// Flags are the telemetry flags the commands share.
type Flags struct {
	LogFormat  string // structured log encoding: text or json
	LogLevel   string // minimum log level: debug, info, warn, error
	CPUProfile string
	MemProfile string
	StatusAddr string // live status HTTP listener; empty disables
}

// RegisterLog registers -log-format and -log-level on fs.
func (f *Flags) RegisterLog(fs *flag.FlagSet) {
	fs.StringVar(&f.LogFormat, "log-format", "text", "structured log encoding: text (logfmt) or json")
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
}

// Register registers the log flags, -cpuprofile, -memprofile and
// -status-addr on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.RegisterLog(fs)
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an end-of-run heap profile to this file")
	fs.StringVar(&f.StatusAddr, "status-addr", "", "serve live run status (/metrics, /debug/events, /api/v1/progress) on this address")
}

// Logger parses the log flags and builds component's logger over dst,
// keeping its last events log events in the returned flight recorder.
func (f Flags) Logger(dst io.Writer, component string, events int) (*slog.Logger, *obs.Recorder, error) {
	rec := obs.NewRecorder(events)
	logger, err := obs.NewLogger(dst, f.LogFormat, f.LogLevel, rec)
	if err != nil {
		return nil, nil, err
	}
	return logger.With("component", component), rec, nil
}

// Config describes one command run.
type Config struct {
	Flags
	// Binary names the run: its logger component, its manifest's binary
	// and, as <Binary>.run, its root span.
	Binary string
	// Events is how many recent log events /debug/events retains.
	Events int
	// Finish writes the manifest as Dir/Manifest, and only when Dir
	// exists: a run that died before its output directory did, or has
	// none, writes no manifest.
	Dir, Manifest string

	// Test hooks (zero in production).
	LogDst      io.Writer         // structured log destination; nil means stderr
	Registry    *obs.Registry     // metrics registry; nil means a fresh one
	StatusReady func(addr string) // called with the bound status address
}

// Run is one started command run. A nil *Run, as unit tests pass, is
// inert: Log returns obs.Discard, Span, SnapMetrics and ScanMetrics
// return nil and NoteScan records nothing.
type Run struct {
	cfg      Config
	began    time.Time
	log      *slog.Logger
	rec      *obs.Recorder
	reg      *obs.Registry
	snap     *snap.Metrics
	scan     *scan.Metrics
	manifest *obs.RunManifest
	root     *obs.Span
	stopCPU  func() error
	srv      *http.Server
}

// Start sets a run up: it parses the log flags, builds the logger and
// flight recorder, starts the CPU profile, builds the registry and the
// snapshot and scan instruments, then the manifest with the run's flags,
// then the root span. Once it returns a run, the caller owes it a Finish.
func Start(cfg Config) (*Run, error) {
	r := &Run{cfg: cfg, began: time.Now(), reg: cfg.Registry}
	dst := cfg.LogDst
	if dst == nil {
		dst = os.Stderr
	}
	var err error
	if r.log, r.rec, err = cfg.Logger(dst, cfg.Binary, cfg.Events); err != nil {
		return nil, err
	}
	if cfg.CPUProfile != "" {
		if r.stopCPU, err = obs.StartCPUProfile(cfg.CPUProfile); err != nil {
			return nil, err
		}
	}
	if r.reg == nil {
		r.reg = obs.NewRegistry()
	}
	r.snap, r.scan = snap.NewMetrics(r.reg), scan.NewMetrics(r.reg)
	r.manifest = obs.NewRunManifest(cfg.Binary, r.began)
	r.manifest.Flags = obs.FlagsFromSet(flag.CommandLine)
	r.root = obs.NewTrace(cfg.Binary + ".run")
	return r, nil
}

// Log is the run's component logger.
func (r *Run) Log() *slog.Logger {
	if r == nil {
		return obs.Discard
	}
	return r.log
}

// Span is the run's root span.
func (r *Run) Span() *obs.Span {
	if r == nil {
		return nil
	}
	return r.root
}

// SnapMetrics are the run's snapshot instruments.
func (r *Run) SnapMetrics() *snap.Metrics {
	if r == nil {
		return nil
	}
	return r.snap
}

// ScanMetrics are the run's scanner instruments.
func (r *Run) ScanMetrics() *scan.Metrics {
	if r == nil {
		return nil
	}
	return r.scan
}

// Registry is the run's metrics registry.
func (r *Run) Registry() *obs.Registry { return r.reg }

// Manifest is the run manifest Finish writes.
func (r *Run) Manifest() *obs.RunManifest { return r.manifest }

// Elapsed is the wall time since Start.
func (r *Run) Elapsed() time.Duration { return time.Since(r.began) }

// NoteScan records one completed dataset scan: the "scan complete" and
// "snapshot coverage" log lines, and the manifest's snapshot block. rep
// is the suite report the scan fed.
func (r *Run) NoteScan(st scan.Stats, rep *core.SuiteReport) {
	if r == nil {
		return
	}
	r.manifest.Snapshot = &obs.SnapshotCoverage{
		PrefixBlocks: st.PrefixBlocks, BlocksRead: st.BlocksRead, BlocksTotal: st.BlocksTotal,
		PrefixSamples: rep.Samples - st.Samples, Passes: rep.Passes.String(),
	}
	r.log.Info("scan complete",
		"samples", st.Samples, "duration", st.Duration.Round(time.Millisecond),
		"mb_per_sec", st.MBPerSec(), "workers", st.Workers)
	r.log.Info("snapshot coverage",
		"blocks_read", st.BlocksRead, "blocks_total", st.BlocksTotal,
		"prefix_blocks", st.PrefixBlocks)
}

// Serve starts the status server when -status-addr names a listener:
// GET /metrics, /debug/events and /api/v1/progress over the run's
// registry and flight recorder, with httpapi's JSON 405 for any other
// method. The progress body is the run ID, the uptime, the snapshot and
// scan blocks, and whatever blocks adds; it is built per request, so it
// reflects the live run. Finish closes the server.
func (r *Run) Serve(blocks func(progress map[string]any)) error {
	if r.cfg.StatusAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", r.cfg.StatusAddr)
	if err != nil {
		return err
	}
	progress := func() any {
		p := map[string]any{
			"run_id":         r.manifest.RunID,
			"uptime_seconds": r.Elapsed().Seconds(),
			"snapshot": map[string]uint64{
				"hits": r.snap.Hits.Value(), "misses": r.snap.Misses.Value(),
				"invalidations": r.snap.Invalidations.Value(), "writes": r.snap.Writes.Value(),
			},
			"scan": map[string]any{
				"scans": r.scan.Scans.Value(), "samples": r.scan.Samples.Value(),
				"samples_per_sec": r.scan.SamplesPerSec.Value(),
			},
		}
		blocks(p)
		return p
	}
	// Zero instruments: a scrape is not counted as a request.
	mux := http.NewServeMux()
	httpapi.Register(mux, httpapi.Instruments{}, []httpapi.Route{
		{Pattern: "GET /metrics", Name: "metrics", Handler: obs.MetricsHandler(r.reg)},
		{Pattern: "GET /debug/events", Name: "events", Handler: obs.EventsHandler(r.rec)},
		{Pattern: "GET /api/v1/progress", Name: "progress", Handler: obs.ProgressHandler(progress)},
	})
	// A client that never finishes its request headers must not hold a
	// connection open for the rest of the run.
	r.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go r.srv.Serve(ln)
	r.log.Info("status server listening", "addr", ln.Addr().String())
	if r.cfg.StatusReady != nil {
		r.cfg.StatusReady(ln.Addr().String())
	}
	return nil
}

// Finish tears the run down, on every exit after Start, in this order:
// it ends the root span and stamps the manifest with the end time and
// the root's stages, calls before (when non-nil) with the span dump,
// writes the manifest, writes the heap profile, stops the CPU profile
// and closes the status server. Every step runs whatever failed before
// it. Finish returns runErr, or else the first error a step met.
func (r *Run) Finish(runErr error, before func(obs.SpanDump) error) error {
	err := runErr
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	r.root.End()
	dump := r.root.Dump()
	r.manifest.Finish(time.Now())
	r.manifest.SetStagesFromDump(dump)
	if before != nil {
		keep(before(dump))
	}
	if _, serr := os.Stat(r.cfg.Dir); serr == nil {
		data, werr := r.manifest.JSON()
		if werr == nil {
			werr = snap.ReplaceFile(filepath.Join(r.cfg.Dir, r.cfg.Manifest), data)
		}
		keep(werr)
	}
	if r.cfg.MemProfile != "" {
		keep(obs.WriteHeapProfile(r.cfg.MemProfile))
	}
	if r.stopCPU != nil {
		keep(r.stopCPU())
	}
	if r.srv != nil {
		r.srv.Close()
	}
	return err
}
