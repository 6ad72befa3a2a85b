package serve

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/snap"
	"repro/internal/tix"
)

// BinWidth is the Figure 7 bin geometry the serving layer analyzes
// with — the same one the figures CLI uses, so served bytes match
// offline renders.
const BinWidth = 7 * 24 * time.Hour

// DefaultRefresh is the refresher's poll interval when Options.Refresh
// is zero.
const DefaultRefresh = 500 * time.Millisecond

// DefaultFillTimeout caps one cache fill (a windowed materialization)
// when Options.FillTimeout is zero. Fills run outside the request's
// cancellation scope so an aborting leader cannot poison coalesced
// waiters — the deadline is what keeps that decoupling from turning
// into an unbounded background scan.
const DefaultFillTimeout = 30 * time.Second

// Options configures an Engine.
type Options struct {
	// Workers is the scan worker count for refresh and /cdf scans;
	// values < 1 use GOMAXPROCS.
	Workers int
	// Refresh is the poll interval between refresh passes; zero means
	// DefaultRefresh.
	Refresh time.Duration
	// SnapshotPath is ignored: the resident state is sized by the
	// samples, so it is folded from the store and never read from a
	// snapshot. The field stays for callers that still set it.
	SnapshotPath string
	// TixPath, when set, maintains the temporal aggregate index at that
	// path (normally store.TixPath()): the refresher extends it as
	// blocks seal and windowed queries compose pre-merged segment nodes
	// instead of scanning. Empty disables the index; an index that
	// fails to open or extend logs and serves by scan.
	TixPath string
	// FillTimeout is the hard deadline on one cache fill; zero means
	// DefaultFillTimeout.
	FillTimeout time.Duration
	// Metrics and ScanMetrics receive the serve_* and scan_*
	// instruments; either nil disables that set.
	Metrics     *Metrics
	ScanMetrics *scan.Metrics
	// Log, when set, receives serving lifecycle events.
	Log *obs.Logger
}

// snapshotView is one published, immutable serving state: the figure
// report and pre-rendered figure payloads at a covered boundary, plus
// the block list backing windowed scans. Readers load it through one
// atomic pointer and never see it change; the refresher swaps in a
// successor and leaves old views to their in-flight readers.
type snapshotView struct {
	fingerprint   string
	coveredBytes  int64
	coveredBlocks int
	samples       uint64
	rep           *core.SuiteReport
	figures       map[string]*response
	blocks        []colf.BlockInfo
	// tixView is the temporal index state published with this view; nil
	// when the index is disabled or unavailable, in which case windowed
	// queries scan the block list instead.
	tixView   *tix.View
	published time.Time
}

// Engine is the query serving engine: a resident HotSuite advanced by a
// background refresher, an atomically published snapshotView, and the
// read cache in front of the HTTP handlers.
type Engine struct {
	store *results.Store
	idx   *core.Index
	opt   Options

	f *os.File // long-lived samples handle; ReadAt-shared by all scans

	// Refresher-owned state, serialized by refreshMu (the background
	// loop and any test-driven RefreshNow).
	refreshMu sync.Mutex
	hot       *core.HotSuite // its Blocks are every complete block folded so far
	tix       *tix.Index     // temporal aggregate index; nil when disabled

	cur   atomic.Pointer[snapshotView]
	lag   atomic.Int64 // stable bytes past the published boundary
	cache *cache
	// bypassCache routes every request straight to its fill function —
	// the no-cache baseline the load benchmark measures against.
	bypassCache atomic.Bool

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewEngine builds the serving engine over an opened binary store. The
// resident state is seeded by folding the complete blocks the store
// already holds — the one walk of the store, whose block list the
// engine keeps — and no snapshot is published until the first Refresh.
func NewEngine(store *results.Store, idx *core.Index, opt Options) (*Engine, error) {
	if store == nil || idx == nil {
		return nil, errors.New("serve: nil store or index")
	}
	if opt.Refresh <= 0 {
		opt.Refresh = DefaultRefresh
	}
	if opt.FillTimeout <= 0 {
		opt.FillTimeout = DefaultFillTimeout
	}
	hot, err := core.NewHotSuite(store, idx, store.Meta().Start, BinWidth, core.SnapshotOptions{})
	if err != nil {
		return nil, err
	}
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	e := &Engine{
		store: store, idx: idx, opt: opt,
		f: f, hot: hot, cache: newCache(opt.Metrics.nilSafe().CacheEvictedBytes),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	if opt.TixPath != "" {
		// Validate against the blocks the resident suite folded: every
		// complete block the store held when it was opened.
		ti, err := tix.Open(opt.TixPath, tix.Binding{
			PassSet: tix.PassSetCDF,
			Index:   idx.Fingerprint(),
			Meta:    core.MetaFingerprint(store.Meta()),
		}, hot.Blocks(), opt.Log)
		if err != nil {
			// The index is an accelerator: serving must come up without it.
			opt.Log.Warn("temporal index unavailable; windowed queries will scan",
				"path", opt.TixPath, "error", err)
		} else {
			e.tix = ti
		}
	}
	return e, nil
}

func blockEnd(blocks []colf.BlockInfo) int64 {
	if len(blocks) == 0 {
		return colf.HeaderSize
	}
	last := blocks[len(blocks)-1]
	return last.Off + last.Len
}

// Start launches the background refresher. It runs one synchronous
// refresh first, so a store with data serves from the very first
// request after Start returns.
func (e *Engine) Start(ctx context.Context) {
	if err := e.Refresh(ctx); err != nil {
		e.opt.Metrics.nilSafe().RefreshErrors.Inc()
		e.opt.Log.Warn("initial refresh failed", "error", err)
	}
	e.started.Store(true)
	go e.run(ctx)
}

// run is the refresher loop: poll, advance, publish, until Close.
func (e *Engine) run(ctx context.Context) {
	defer close(e.done)
	t := time.NewTicker(e.opt.Refresh)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			if err := e.Refresh(ctx); err != nil {
				e.opt.Metrics.nilSafe().RefreshErrors.Inc()
				e.opt.Log.Warn("refresh failed", "error", err)
			}
		}
	}
}

// nilSafe lets engine internals touch metric fields without guarding.
func (m *Metrics) nilSafe() *Metrics {
	if m == nil {
		return &Metrics{}
	}
	return m
}

// Refresh runs one refresh pass: locate the stable delta, fold it into
// the resident state, and publish a new snapshot view with re-rendered
// figures. A pass with no new complete blocks republishes nothing (the
// cache stays warm). Errors leave the previous view serving.
func (e *Engine) Refresh(ctx context.Context) error {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	m := e.opt.Metrics.nilSafe()
	t0 := time.Now()

	fi, err := e.f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	covered, _ := e.hot.Covered()
	if size > covered {
		// A torn tail is a block the campaign is still writing: fold the
		// complete blocks before it and take the rest on a later pass.
		delta, stableEnd, err := colf.Locate(e.f, size, covered)
		if err != nil && !errors.Is(err, colf.ErrTorn) {
			return err
		}
		// Publish the gap before folding: if the fold fails, the lag
		// stands and readers count as stale-served until it clears.
		e.lag.Store(stableEnd - covered)
		m.RefreshLagBytes.Set(float64(stableEnd - covered))
		if len(delta) > 0 {
			st, err := e.hot.Advance(ctx, e.f, size, delta, stableEnd, scan.Config{
				Workers: e.opt.Workers,
				Metrics: e.opt.ScanMetrics,
				Log:     e.opt.Log,
			})
			if err != nil {
				return err
			}
			e.opt.Log.Debug("serving state advanced",
				"delta_blocks", len(delta), "delta_samples", st.Samples,
				"covered_bytes", stableEnd)
		}
	}

	covered, coveredBlocks := e.hot.Covered()
	e.lag.Store(0) // everything stable is folded; only a torn tail remains
	m.RefreshLagBytes.Set(0)

	cur := e.cur.Load()
	if cur != nil && cur.coveredBytes == covered {
		return nil // nothing new: keep the view and its warm cache
	}
	if e.hot.Samples() == 0 {
		return nil // nothing to serve yet
	}

	rep, err := e.hot.Report()
	if err != nil {
		return err
	}
	figs, err := renderFigures(rep)
	if err != nil {
		return err
	}
	// The report still aliases the resident suite's accumulators, which
	// the next Advance mutates. Freeze the two reports the request path
	// reads after publish (quantile queries); figures are already frozen
	// as rendered bytes.
	rep.MinRTT = rep.MinRTT.Clone()
	rep.FullDist = rep.FullDist.Clone()
	head, tail, err := snap.WindowCRCs(e.f, covered)
	if err != nil {
		return err
	}
	// Bring the temporal index up to the blocks this view serves, then
	// publish its directory with the view. An extend failure downgrades
	// windowed queries to scans — never a stale or wrong index answer.
	blocks := e.hot.Blocks()
	var tixView *tix.View
	if e.tix != nil {
		if err := e.tix.Extend(e.f, blocks, e.idx); err != nil {
			e.opt.Log.Warn("temporal index extend failed; windowed queries will scan", "error", err)
		} else {
			tixView = e.tix.View()
		}
	}
	view := &snapshotView{
		fingerprint:   snap.Fingerprint(covered, e.hot.Samples(), head, tail),
		coveredBytes:  covered,
		coveredBlocks: coveredBlocks,
		samples:       e.hot.Samples(),
		rep:           rep,
		figures:       figs,
		blocks:        blocks[:len(blocks):len(blocks)],
		tixView:       tixView,
		published:     time.Now(),
	}
	for _, r := range view.figures {
		r.etag = etagFor(view.fingerprint)
	}
	e.cur.Store(view)
	e.cache.invalidate()
	m.Refreshes.Inc()
	m.RefreshSeconds.Observe(time.Since(t0).Seconds())
	m.CoveredBytes.Set(float64(covered))
	m.CoveredBlocks.Set(float64(coveredBlocks))
	m.Samples.Set(float64(view.samples))
	e.opt.Log.Info("snapshot published",
		"fingerprint", view.fingerprint, "covered_bytes", covered,
		"covered_blocks", coveredBlocks, "samples", view.samples)
	return nil
}

// renderFigures renders every served figure once, at publish time.
// Rendering is also what freezes the report: the CDF marks materialize
// and sort every distribution the quantile endpoint later queries, so
// request-path reads are strictly read-only.
func renderFigures(rep *core.SuiteReport) (map[string]*response, error) {
	out := make(map[string]*response, 4)
	put := func(fig string, lines []string) {
		out[fig] = &response{
			status:      200,
			contentType: "text/plain; charset=utf-8",
			body:        []byte(strings.Join(lines, "\n") + "\n"),
		}
	}
	put("4", figures.Figure4Lines(rep.Proximity))
	l5, err := figures.CDFLines(rep.MinRTT)
	if err != nil {
		return nil, err
	}
	put("5", l5)
	l6, err := figures.CDFLines(rep.FullDist)
	if err != nil {
		return nil, err
	}
	put("6", l6)
	l7, err := figures.Figure7Lines(rep.LastMile)
	if err != nil {
		return nil, err
	}
	put("7", l7)
	return out, nil
}

func etagFor(fingerprint string) string { return `"` + fingerprint + `"` }

// SetCacheBypass toggles the read cache off (true) or on. It exists
// for the load benchmark's no-cache baseline and for tests; production
// serving always runs with the cache on.
func (e *Engine) SetCacheBypass(v bool) { e.bypassCache.Store(v) }

// Close stops the refresher and releases the store handle. Safe to call
// without Start (the refresher simply never ran).
func (e *Engine) Close() error {
	e.stopOnce.Do(func() { close(e.stop) })
	if e.started.Load() {
		select {
		case <-e.done:
		case <-time.After(5 * time.Second):
		}
	}
	if e.tix != nil {
		e.tix.Close()
	}
	return e.f.Close()
}

// Status is the serving slice of /api/v1/status.
type Status struct {
	// Snapshot is the published snapshot's fingerprint; empty until the
	// first publish.
	Snapshot      string    `json:"snapshot,omitempty"`
	CoveredBytes  int64     `json:"covered_bytes"`
	CoveredBlocks int       `json:"covered_blocks"`
	Samples       uint64    `json:"samples"`
	LagBytes      int64     `json:"refresh_lag_bytes"`
	PublishedAt   time.Time `json:"published_at"`
}

// Status reports the published snapshot's coverage.
func (e *Engine) Status() Status {
	v := e.cur.Load()
	if v == nil {
		return Status{LagBytes: e.lag.Load()}
	}
	return Status{
		Snapshot:      v.fingerprint,
		CoveredBytes:  v.coveredBytes,
		CoveredBlocks: v.coveredBlocks,
		Samples:       v.samples,
		LagBytes:      e.lag.Load(),
		PublishedAt:   v.published,
	}
}
