package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/httpapi"
	"repro/internal/scan"
	"repro/internal/tix"
)

// Register adds the serving layer's route table to mux:
//
//	GET /api/v1/figures/{fig}  fig in ServedFigures — paper-exact figure text
//	GET /api/v1/quantile       ?p=0.5[&dist=full|min][&continent=EU]
//	GET /api/v1/cdf            ?since=RFC3339&until=RFC3339
//
// Every endpoint answers from the published snapshot: figures are
// written as rendered at publish, and every other answer is filled per
// request unless If-None-Match already holds the snapshot's ETag.
// Non-GET methods get a uniform 405 with Allow.
func (e *Engine) Register(mux *http.ServeMux) {
	m := e.opt.Metrics.nilSafe()
	httpapi.Register(mux, httpapi.Instruments{Requests: m.Requests, Seconds: m.RequestSeconds}, []httpapi.Route{
		{Pattern: "GET /api/v1/figures/{fig}", Name: "figures", Handler: e.handleFigure},
		{Pattern: "GET /api/v1/quantile", Name: "quantile", Handler: e.handleQuantile},
		{Pattern: "GET /api/v1/cdf", Name: "cdf", Handler: e.handleCDF},
	})
}

// Handler returns a mux that serves the serving layer's routes alone.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	e.Register(mux)
	return mux
}

// view loads the published snapshot, answering 503 (and returning nil)
// before the first publish.
func (e *Engine) view(w http.ResponseWriter) *snapshotView {
	v := e.cur.Load()
	if v == nil {
		httpapi.Error(w, http.StatusServiceUnavailable, "no snapshot published yet")
	}
	return v
}

// stage indexes one timed stage of a window fill; stageNames are the
// serve_window_stage_seconds label values and Server-Timing metric
// names. The first five are tix.QueryStats' durations; scan is the
// fallback block scan, encode the body rendering.
type stage int

const (
	stageGridCompose stage = iota
	stageSlabRead
	stageEdgeDecode
	stageFold
	stageSelect
	stageScan
	stageEncode
	numStages
)

var stageNames = [numStages]string{
	"grid_compose", "slab_read", "edge_decode", "fold", "select", "scan", "encode",
}

// stageTimes is where one window fill's time went; a 304 answered
// before its fill has none.
type stageTimes [numStages]time.Duration

// addQuery folds an index query's stage durations in.
func (st *stageTimes) addQuery(q tix.QueryStats) {
	st[stageGridCompose] += q.GridCompose
	st[stageSlabRead] += q.SlabRead
	st[stageEdgeDecode] += q.EdgeDecode
	st[stageFold] += q.Fold
	st[stageSelect] += q.Select
}

// serverTiming renders the stages that ran as a Server-Timing header
// value (durations in milliseconds); empty when none did.
func (st *stageTimes) serverTiming() string {
	var sb strings.Builder
	for i, d := range st {
		if d == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(stageNames[i])
		sb.WriteString(";dur=")
		sb.WriteString(strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64))
	}
	return sb.String()
}

// serveFill answers one request from view v. Every body v serves
// carries the ETag of v's fingerprint, so a conditional request holding
// it gets its 304 before any fill; any other request runs fill and gets
// the result through writeResponse. fill appends its body to the empty
// buffer it is handed, a pooled one that serveFill takes back once the
// body is written. st, when non-nil, is the stage breakdown fill
// records into: the stages that ran are exported as
// serve_window_stage_seconds and a Server-Timing header. A fill its
// request abandoned writes nothing: nobody reads the answer, and the
// request middleware counts it as canceled.
func (e *Engine) serveFill(w http.ResponseWriter, r *http.Request, v *snapshotView, st *stageTimes, fill func(buf []byte) (*response, error)) {
	if etag := etagFor(v.fingerprint); noneMatch(r.Header.Values("If-None-Match"), etag) {
		e.writeResponse(w, r, &response{etag: etag})
		return
	}
	m := e.opt.Metrics.nilSafe()
	buf := bodies.Get().(*[]byte)
	defer bodies.Put(buf)
	resp, err := fill((*buf)[:0])
	switch {
	case errors.Is(err, context.Canceled):
		return
	case errors.Is(err, context.DeadlineExceeded):
		httpapi.Error(w, http.StatusGatewayTimeout, "window materialization exceeded the fill deadline")
		return
	case err != nil:
		httpapi.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	if st != nil {
		for i, d := range st {
			if d > 0 {
				m.WindowStageSeconds.With(stageNames[i]).Observe(d.Seconds())
			}
		}
		if h := st.serverTiming(); h != "" {
			w.Header().Set("Server-Timing", h)
		}
	}
	e.writeResponse(w, r, resp)
	// Written: the body, grown as fill needed, is the next fill's buffer.
	// Figure bodies, shared by every request of their view, never come
	// through here.
	*buf = resp.body[:0]
}

// writeResponse writes a ready response, handling conditional requests
// (If-None-Match against the snapshot ETag) and counting a response
// served while the snapshot lags the store. Bodies are sent with their
// Content-Length, not chunked.
func (e *Engine) writeResponse(w http.ResponseWriter, r *http.Request, resp *response) {
	if e.lag.Load() > 0 {
		e.opt.Metrics.nilSafe().StaleServed.Inc()
	}
	if resp.etag != "" {
		w.Header().Set("Etag", resp.etag)
		if noneMatch(r.Header.Values("If-None-Match"), resp.etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("Content-Type", resp.contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// noneMatch reports whether If-None-Match values match etag as RFC 9110
// §13.1.2 has it: "*", or any listed tag equal under weak comparison. A
// snapshot ETag holds no comma, so splitting lists at commas is exact.
func noneMatch(values []string, etag string) bool {
	for _, v := range values {
		for _, tag := range strings.Split(v, ",") {
			if tag = strings.TrimSpace(tag); tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
				return true
			}
		}
	}
	return false
}

// response is one finished HTTP payload. A published view's figures are
// shared by every request that reads them and never written again; a
// fill's body lives in a pooled buffer until serveFill has written it.
type response struct {
	status      int
	contentType string
	etag        string
	body        []byte
}

// jsonResponse appends v, as json.Marshal renders it, and a newline to
// b, and wraps the body in a response stamped with the snapshot's ETag.
func jsonResponse(b []byte, v any, fingerprint string) (*response, error) {
	w := bytes.NewBuffer(b)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return nil, err
	}
	return jsonBody(w.Bytes(), fingerprint), nil
}

// jsonBody wraps an already rendered JSON body the same way.
func jsonBody(body []byte, fingerprint string) *response {
	return &response{
		status:      http.StatusOK,
		contentType: "application/json",
		etag:        etagFor(fingerprint),
		body:        body,
	}
}

func (e *Engine) handleFigure(w http.ResponseWriter, r *http.Request) {
	v := e.view(w)
	if v == nil {
		return
	}
	fig := r.PathValue("fig")
	resp, ok := v.figures[fig]
	if !ok {
		httpapi.Errorf(w, http.StatusNotFound, "unknown figure %q (serving %s)", fig, strings.Join(ServedFigures, ", "))
		return
	}
	// The payload was rendered at publish time: it is written as is.
	e.writeResponse(w, r, resp)
}

// quantileDTO is one continent's answer on /api/v1/quantile.
type quantileDTO struct {
	Continent string  `json:"continent"`
	Code      string  `json:"code"`
	Samples   int     `json:"samples"`
	Value     float64 `json:"value_ms"`
}

// quantileBody is the /api/v1/quantile response shape. Since/Until
// echo back only on windowed queries.
type quantileBody struct {
	Snapshot   string        `json:"snapshot"`
	Dist       string        `json:"dist"`
	P          float64       `json:"p"`
	Since      string        `json:"since,omitempty"`
	Until      string        `json:"until,omitempty"`
	Continents []quantileDTO `json:"continents"`
}

func (e *Engine) handleQuantile(w http.ResponseWriter, r *http.Request) {
	v := e.view(w)
	if v == nil {
		return
	}
	q := r.URL.Query()
	p, err := strconv.ParseFloat(q.Get("p"), 64)
	if err != nil || !(p >= 0 && p <= 1) { // !(...) also rejects NaN
		httpapi.Errorf(w, http.StatusBadRequest, "p must be a number in [0, 1], got %q", q.Get("p"))
		return
	}
	distName := q.Get("dist")
	if distName == "" {
		distName = "full"
	}
	since, until, ok := e.parseWindow(w, q)
	if !ok {
		return
	}
	windowed := !since.IsZero() || !until.IsZero()
	var rep *core.CDFReport
	switch distName {
	case "full":
		rep = v.rep.FullDist
	case "min":
		if windowed {
			// The min-RTT distribution is a whole-campaign per-probe
			// reduction; a time slice of it has no pre-aggregated form.
			httpapi.Error(w, http.StatusBadRequest, "windowed quantiles serve dist=full only")
			return
		}
		rep = v.rep.MinRTT
	default:
		httpapi.Errorf(w, http.StatusBadRequest, "dist must be full or min, got %q", distName)
		return
	}
	only := geo.ContinentUnknown
	if s := q.Get("continent"); s != "" {
		ct, err := geo.ParseContinent(s)
		if err != nil {
			httpapi.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		only = ct
	}
	render := func(buf []byte, rep quantileSource) (*response, error) {
		body := quantileBody{Snapshot: v.fingerprint, Dist: distName, P: p}
		if !since.IsZero() {
			body.Since = since.Format(time.RFC3339Nano)
		}
		if !until.IsZero() {
			body.Until = until.Format(time.RFC3339Nano)
		}
		for _, ct := range rep.Continents() {
			if only != geo.ContinentUnknown && ct != only {
				continue
			}
			val, err := rep.Quantile(ct, p)
			if err != nil {
				return nil, err
			}
			body.Continents = append(body.Continents, quantileDTO{
				Continent: ct.String(), Code: ct.Code(), Samples: rep.N(ct), Value: val,
			})
		}
		return jsonResponse(buf, body, v.fingerprint)
	}
	if windowed {
		pred := &colf.Predicate{Since: since, Until: until}
		ctx, cancel := e.fillContext(r)
		defer cancel()
		var st stageTimes
		e.serveFill(w, r, v, &st, func(buf []byte) (*response, error) {
			// The index path refolds the edge pieces first; each quantile
			// reads its bin's slab chunks, so the render splits into
			// slab_read, select and encode. A chunk that fails its CRC, or a
			// gather that disagrees with the counts, falls back to the scan.
			var resp *response
			ok, err := e.windowIndex(ctx, v, pred, func(res *tix.Result) error {
				err := res.Load()
				if err == nil {
					t0 := time.Now()
					resp, err = render(buf, res)
					st[stageEncode] += time.Since(t0) - res.Stats.SlabRead - res.Stats.Select
				}
				st.addQuery(res.Stats)
				e.opt.Metrics.nilSafe().WindowSlabBytes.Add(uint64(res.Stats.SlabBytes))
				return err
			})
			if ok || err != nil {
				return resp, err
			}
			src, err := e.windowScan(ctx, v, pred, &st)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			resp, err = render(buf, src)
			st[stageEncode] += time.Since(t0)
			return resp, err
		})
		return
	}
	e.serveFill(w, r, v, nil, func(buf []byte) (*response, error) {
		// Post-render, every report distribution is materialized and
		// sorted, so these rank queries are read-only — no scan, no
		// mutation, safe under concurrent readers.
		return render(buf, rep)
	})
}

// quantileSource is what /quantile renders from: the published
// reports (*core.CDFReport, also the scan fallback's answer) and an
// index-composed window (*tix.Result) both are one.
type quantileSource interface {
	Continents() []geo.Continent
	N(ct geo.Continent) int
	Quantile(ct geo.Continent, q float64) (float64, error)
}

// parseWindowTime accepts RFC 3339 timestamps and returns the instant
// in UTC, so every spelling of one instant echoes the same bytes.
func parseWindowTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, s)
	return t.UTC(), err
}

// parseWindow extracts and validates the since/until query params,
// answering 400 itself (ok=false) on bad input.
func (e *Engine) parseWindow(w http.ResponseWriter, q url.Values) (since, until time.Time, ok bool) {
	since, err := parseWindowTime(q.Get("since"))
	if err != nil {
		httpapi.Errorf(w, http.StatusBadRequest, "since: %v", err)
		return since, until, false
	}
	until, err = parseWindowTime(q.Get("until"))
	if err != nil {
		httpapi.Errorf(w, http.StatusBadRequest, "until: %v", err)
		return since, until, false
	}
	if !since.IsZero() && !until.IsZero() && !since.Before(until) {
		httpapi.Error(w, http.StatusBadRequest, "since must precede until")
		return since, until, false
	}
	return since, until, true
}

// fillContext builds the context a window fill runs under: the
// request's, so a client that goes away stops its fill, bounded by the
// hard fill deadline, so a runaway materialization answers 504 instead
// of scanning forever.
func (e *Engine) fillContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), e.opt.FillTimeout)
}

func (e *Engine) handleCDF(w http.ResponseWriter, r *http.Request) {
	v := e.view(w)
	if v == nil {
		return
	}
	since, until, ok := e.parseWindow(w, r.URL.Query())
	if !ok {
		return
	}
	pred := &colf.Predicate{Since: since, Until: until}
	ctx, cancel := e.fillContext(r)
	defer cancel()
	var st stageTimes
	e.serveFill(w, r, v, &st, func(buf []byte) (*response, error) {
		var room [geo.SouthAmerica]continentCounts // every continent's entry, unallocated
		encode := func(curves []continentCounts) (*response, error) {
			body, err := appendCDFBody(buf, v.fingerprint, since, until, curves)
			if err != nil {
				return nil, err
			}
			return jsonBody(body, v.fingerprint), nil
		}
		// The index path composes the curves' counts from the published
		// view's resident prefix rows plus a count-only fold of the
		// boundary blocks; it reads no sidecar bytes and selects nothing,
		// and renders before the Result goes back to its pool. The counts
		// are the ones a scan's distributions would yield, so the response
		// bytes are identical either way; without a usable index view the
		// window falls back to the scan.
		var resp *response
		ok, err := e.windowIndex(ctx, v, pred, func(res *tix.Result) (err error) {
			st.addQuery(res.Stats)
			t0 := time.Now()
			curves := room[:0]
			for _, ct := range res.Continents() {
				curves = append(curves, continentCounts{ct: ct, n: res.N(ct), cum: res.Counts(ct)})
			}
			resp, err = encode(curves)
			st[stageEncode] += time.Since(t0)
			return err
		})
		if ok || err != nil {
			return resp, err
		}
		rep, err := e.windowScan(ctx, v, pred, &st)
		if err != nil {
			return nil, err
		}
		// Counting each distribution at the grid points is encode work,
		// as composing them is on the index path.
		t0 := time.Now()
		defer func() { st[stageEncode] += time.Since(t0) }()
		curves := room[:0]
		for _, ct := range rep.Continents() {
			d, _ := rep.Dist(ct)
			cum := make([]uint64, len(curveX))
			for k := range cum {
				cum[k] = uint64(d.Count(float64(k + 1)))
			}
			curves = append(curves, continentCounts{ct: ct, n: d.N(), cum: cum})
		}
		return encode(curves)
	})
}

// windowIndex answers one window through the published temporal index
// view: it queries the view, hands the result to answer and releases it,
// so answer must render all it needs from it before returning. It reports
// false with no error when the window must be scanned instead: no index
// view (disabled or invalidated), or a query or answer that failed —
// counted and logged, never served. A deadline expiry or an abandoned
// request propagates: the fallback scan would end the same way.
func (e *Engine) windowIndex(ctx context.Context, v *snapshotView, pred *colf.Predicate, answer func(*tix.Result) error) (bool, error) {
	if v.tixView == nil {
		return false, nil
	}
	m := e.opt.Metrics.nilSafe()
	res, err := v.tixView.Query(ctx, e.f, v.blocks, pred.Since, pred.Until, e.idx)
	if err == nil {
		err = answer(res)
		qs := res.Stats
		res.Release() // answer is done with it
		if err == nil {
			m.WindowIndexQueries.Inc()
			m.WindowIndexNodes.Add(uint64(qs.Nodes))
			m.WindowIndexEdgeBlocks.Add(uint64(qs.EdgeBlocks))
			m.WindowIndexEdgeDecodes.Add(uint64(qs.EdgeDecodes))
			return true, nil
		}
	}
	if fillEnded(m, err) {
		return false, err
	}
	m.WindowIndexFallbacks.Inc()
	e.opt.Log.Warn("temporal index query failed; falling back to scan", "error", err)
	return false, nil
}

// windowScan runs the one request-path scan the serving layer allows: a
// predicate-pushdown pass over the published snapshot's block list.
// Zone maps skip blocks wholly outside the window, so the cost tracks
// the window size, not the store size.
func (e *Engine) windowScan(ctx context.Context, v *snapshotView, pred *colf.Predicate, st *stageTimes) (*core.CDFReport, error) {
	m := e.opt.Metrics.nilSafe()
	m.RequestScans.Inc()
	t0 := time.Now()
	defer func() { st[stageScan] += time.Since(t0) }()
	var passes []*core.WindowCDFPass
	cfg := scan.Config{
		Workers:   e.opt.Workers,
		Predicate: pred,
		Metrics:   e.opt.ScanMetrics,
		Log:       e.opt.Log,
		NewPasses: func(worker int) ([]scan.Pass, error) {
			p := core.NewWindowCDFPass(e.idx)
			passes = append(passes, p)
			return []scan.Pass{p}, nil
		},
	}
	size := blockEnd(v.blocks)
	if _, err := scan.Blocks(ctx, cfg, e.f, size, v.blocks, 0, colf.HeaderSize); err != nil {
		fillEnded(m, err)
		return nil, err
	}
	// The scan merged every worker into the worker-0 pass.
	return passes[0].Report()
}

// fillEnded reports whether err ended a fill early: its deadline passed,
// which counts a fill timeout, or its request went away, which does not.
func fillEnded(m *Metrics, err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		m.FillTimeouts.Inc()
		return true
	}
	return errors.Is(err, context.Canceled)
}
