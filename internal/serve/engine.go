package serve

import (
	"context"
	"errors"
	"log/slog"
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

// DefaultRefresh is the refresher's pass interval when Options.Refresh
// is zero.
const DefaultRefresh = 500 * time.Millisecond

// pollsPerRefresh is how many times per Refresh interval the refresher
// stats the store for growth.
const pollsPerRefresh = 8

// DefaultFillTimeout caps one window fill (a windowed materialization)
// when Options.FillTimeout is zero. A fill also stops when its request
// goes away; the deadline bounds the one whose client waits it out.
const DefaultFillTimeout = 30 * time.Second

// Options configures an Engine.
type Options struct {
	// Workers is the scan worker count for refresh and /cdf scans;
	// values < 1 use GOMAXPROCS.
	Workers int
	// Refresh is the least time between the starts of two background
	// refresh passes; zero means DefaultRefresh. The refresher stats the
	// store pollsPerRefresh times per interval and starts a pass once the
	// store has grown and the interval has passed.
	Refresh time.Duration
	// SnapshotPath is ignored: the resident state is sized by the
	// samples, so it is folded from the store and never read from a
	// snapshot. The field stays for callers that still set it.
	SnapshotPath string
	// TixPath, when set, maintains the temporal aggregate index at that
	// path (normally store.TixPath()): the refresher extends it as
	// blocks seal and windowed queries compose its per-block records
	// instead of scanning. Empty disables the index; an index that
	// fails to open or extend logs and serves by scan.
	TixPath string
	// FillTimeout is the hard deadline on one window fill; zero means
	// DefaultFillTimeout.
	FillTimeout time.Duration
	// Metrics and ScanMetrics receive the serve_* and scan_*
	// instruments; either nil disables that set.
	Metrics     *Metrics
	ScanMetrics *scan.Metrics
	// Log, when set, receives serving lifecycle events.
	Log *slog.Logger
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
	resident  Resident // taken at publish
	published time.Time
}

// Engine is the query serving engine: a resident HotSuite advanced by a
// background refresher, and an atomically published snapshotView the
// HTTP handlers answer from.
type Engine struct {
	idx *core.Index
	opt Options

	f *os.File // long-lived samples handle; ReadAt-shared by all scans

	// Refresher-owned state, serialized by refreshMu (the background
	// loop and any test-driven RefreshNow).
	refreshMu sync.Mutex
	hot       *core.HotSuite // its Blocks are every complete block folded so far
	tix       *tix.Index     // temporal aggregate index; nil when disabled

	cur atomic.Pointer[snapshotView]
	lag atomic.Int64 // stable bytes past the published boundary

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
	if opt.Log == nil {
		opt.Log = obs.Discard
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
		idx: idx, opt: opt,
		f: f, hot: hot,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	if opt.TixPath != "" {
		// Validate against the blocks the resident suite folded: every
		// complete block the store held when it was opened.
		ti, err := tix.Open(opt.TixPath, tix.BindingFor(idx.Fingerprint(), core.MetaFingerprint(store.Meta())), hot.Blocks(), opt.Log)
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

// run is the refresher loop until Close: once a pass has work (pending)
// and Refresh has passed since the last pass, advance and publish.
// Passes are not pinned to a fixed-phase Refresh ticker: there, an
// append landing just after a tick waited a whole interval more than
// one landing just before it, so publish latency jumped by whole
// intervals with small shifts in when appends land.
func (e *Engine) run(ctx context.Context) {
	defer close(e.done)
	t := time.NewTicker(max(e.opt.Refresh/pollsPerRefresh, 1))
	defer t.Stop()
	var last time.Time
	for {
		select {
		case <-e.stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if time.Since(last) < e.opt.Refresh || !e.pending() {
			continue
		}
		last = time.Now()
		if err := e.Refresh(ctx); err != nil {
			e.opt.Metrics.nilSafe().RefreshErrors.Inc()
			e.opt.Log.Warn("refresh failed", "error", err)
		}
	}
}

// pending reports whether a pass has work: bytes past the folded prefix,
// or a folded prefix no published view covers yet (a pass that failed
// after its fold). A failed stat counts, so the pass that follows
// reports it.
func (e *Engine) pending() bool {
	e.refreshMu.Lock()
	covered, _ := e.hot.Covered()
	e.refreshMu.Unlock()
	if v := e.cur.Load(); v == nil || v.coveredBytes != covered {
		return true
	}
	fi, err := e.f.Stat()
	return err != nil || fi.Size() > covered
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
// figures. A pass with no new complete blocks republishes nothing, so
// the ETag holds. Errors leave the previous view serving.
func (e *Engine) Refresh(ctx context.Context) error {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	m := e.opt.Metrics.nilSafe()
	t0 := time.Now()
	// Each stage gets a child of the caller's span: inert when ctx
	// carries none, as in production.
	parent := obs.From(ctx)

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
			sp := parent.Child("refresh_fold")
			st, err := e.hot.Advance(obs.ContextWith(ctx, sp), e.f, size, delta, scan.Config{
				Workers: e.opt.Workers,
				Metrics: e.opt.ScanMetrics,
				Log:     e.opt.Log,
			})
			sp.End()
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
		return nil // nothing new: keep the view
	}
	if e.hot.Samples() == 0 {
		return nil // nothing to serve yet
	}

	sp := parent.Child("refresh_report")
	rep, err := e.hot.Report()
	sp.End()
	if err != nil {
		return err
	}
	sp = parent.Child("refresh_render")
	figs, err := renderFigures(rep)
	sp.End()
	if err != nil {
		return err
	}
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
		sp = parent.Child("refresh_tix_extend")
		err := e.tix.Extend(e.f, blocks, e.idx)
		sp.End()
		if err != nil {
			e.opt.Log.Warn("temporal index extend failed; windowed queries will scan", "error", err)
		} else {
			tixView = e.tix.View()
		}
	}
	var res Resident
	res.NearestRows, res.KeptSets = e.hot.ResidentBytes()
	if e.tix != nil {
		res.TixPrefix, res.TixDirectory, res.TixEdgeCodes = e.tix.ResidentBytes()
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
		resident:      res,
		published:     time.Now(),
	}
	for _, r := range view.figures {
		r.etag = etagFor(view.fingerprint)
	}
	e.cur.Store(view)
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

// ServedFigures names the figures /api/v1/figures/{fig} serves, in
// order: the text form of each, from the figures table, over the
// resident report.
var ServedFigures = []string{"4", "5", "6", "7"}

// renderFigures renders every served figure once, at publish time.
// Rendering is also what freezes the report: Figure 6's distributions
// arrive sorted, and the CDF marks sort Figure 5's, so the quantile
// endpoint's reads are strictly read-only. No later Advance or Report
// writes to either.
func renderFigures(rep *core.SuiteReport) (map[string]*response, error) {
	out := make(map[string]*response, len(ServedFigures))
	in := &figures.Inputs{Report: rep}
	for _, name := range ServedFigures {
		f, _ := figures.Lookup(name)
		lines, err := f.Lines(in)
		if err != nil {
			return nil, err
		}
		out[name] = &response{
			status:      200,
			contentType: "text/plain; charset=utf-8",
			body:        []byte(strings.Join(lines, "\n") + "\n"),
		}
	}
	return out, nil
}

func etagFor(fingerprint string) string { return `"` + fingerprint + `"` }

// SetCacheBypass does nothing: there is no read cache to bypass, and
// every request but a matching conditional one fills. It stays for the
// load benchmark, which still calls it.
func (e *Engine) SetCacheBypass(bool) {}

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
	Resident      Resident  `json:"resident_bytes"`
}

// Resident is where the serving state's bytes are: NearestPass's row
// buffer (chunks, best rows, row chain), the Figure 6/7 multisets, and
// the index's prefix rows, slab directory (offsets, chunk CRCs, code
// slots) and edge codes (all three zero without an index).
type Resident struct {
	NearestRows  int64 `json:"nearest_rows"`
	KeptSets     int64 `json:"kept_sets"`
	TixPrefix    int64 `json:"tix_prefix"`
	TixDirectory int64 `json:"tix_directory"`
	TixEdgeCodes int64 `json:"tix_edge_codes"`
}

// Status reports the published snapshot's coverage and where the
// serving state's bytes are as of the publish, but for the edge codes:
// windows add those after it, so they are read now.
func (e *Engine) Status() Status {
	v := e.cur.Load()
	if v == nil {
		return Status{LagBytes: e.lag.Load()}
	}
	res := v.resident
	if v.tixView != nil {
		res.TixEdgeCodes = v.tixView.EdgeCodeBytes()
	}
	return Status{
		Snapshot:      v.fingerprint,
		CoveredBytes:  v.coveredBytes,
		CoveredBlocks: v.coveredBlocks,
		Samples:       v.samples,
		LagBytes:      e.lag.Load(),
		PublishedAt:   v.published,
		Resident:      res,
	}
}
