package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/stats"
)

// newTixEngine builds an engine maintaining the temporal aggregate
// index at the store's sidecar path.
func (f *fixture) newTixEngine(t testing.TB) (*Engine, *Metrics) {
	t.Helper()
	m := NewMetrics(obs.NewRegistry())
	e, err := NewEngine(f.store, f.world.Index, Options{
		Workers: 2,
		Refresh: time.Hour,
		Metrics: m,
		TixPath: f.store.TixPath(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, m
}

// windowTarget formats a windowed query URL.
func windowTarget(path string, since, until time.Time) string {
	target := path
	sep := "?"
	if strings.Contains(path, "?") { // already has params (p=0.9)
		sep = "&"
	}
	if !since.IsZero() {
		target += sep + "since=" + since.Format(time.RFC3339)
		sep = "&"
	}
	if !until.IsZero() {
		target += sep + "until=" + until.Format(time.RFC3339)
	}
	return target
}

// TestServeWindowedIndexByteIdentity is the tentpole acceptance gate on
// the serving side: for every window shape — unbounded, block-aligned,
// block-splitting, empty, reaching past the sealed data — the
// index-composed response must be byte-identical to the per-window
// scan an index-less engine runs. Both engines publish the same
// snapshot fingerprint over the same store, so any divergence is the
// index's fault.
func TestServeWindowedIndexByteIdentity(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)

	scanEng, scanM := f.newEngine(t)
	tixEng, tixM := f.newTixEngine(t)
	ctx := context.Background()
	if err := scanEng.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tixEng.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := tixEng.Status().Snapshot, scanEng.Status().Snapshot; got != want {
		t.Fatalf("engines publish different snapshots: %q vs %q", got, want)
	}
	hScan, hTix := scanEng.Handler(), tixEng.Handler()

	start, end := f.cfg.Start, f.cfg.End
	type window struct {
		name         string
		since, until time.Time
	}
	wins := []window{
		{"open", time.Time{}, time.Time{}},
		{"open-until", start.Add(11 * 24 * time.Hour), time.Time{}},
		{"open-since", time.Time{}, start.Add(5 * 24 * time.Hour)},
		{"one-week", start.Add(7 * 24 * time.Hour), start.Add(14 * 24 * time.Hour)},
		{"odd-minutes", start.Add(50*time.Hour + 13*time.Minute), start.Add(200*time.Hour + 41*time.Minute)},
		{"empty", start.Add(time.Hour), start.Add(time.Hour + time.Second)},
		{"before-campaign", start.Add(-48 * time.Hour), start.Add(-time.Nanosecond)},
		{"past-sealed-end", end.Add(-24 * time.Hour), end.Add(365 * 24 * time.Hour)},
	}
	rng := rand.New(rand.NewSource(41))
	span := end.Sub(start)
	for i := 0; i < 8; i++ {
		a := time.Duration(rng.Int63n(int64(span)))
		b := time.Duration(rng.Int63n(int64(span)))
		if a > b {
			a, b = b, a
		}
		wins = append(wins, window{"random-" + string(rune('a'+i)), start.Add(a), start.Add(b + time.Second)})
	}

	for _, win := range wins {
		t.Run(win.name, func(t *testing.T) {
			target := windowTarget("/api/v1/cdf", win.since, win.until)
			ws := get(hScan, target)
			wt := get(hTix, target)
			if ws.Code != http.StatusOK || wt.Code != http.StatusOK {
				t.Fatalf("status scan=%d tix=%d: %s / %s", ws.Code, wt.Code, ws.Body.String(), wt.Body.String())
			}
			if ws.Body.String() != wt.Body.String() {
				t.Fatalf("index-composed window diverges from scan:\nscan: %.200s\ntix:  %.200s",
					ws.Body.String(), wt.Body.String())
			}
		})
	}

	// The identical answers must have come from different machinery.
	if got := tixM.WindowIndexQueries.Value(); got == 0 {
		t.Fatal("tix engine never used the index")
	}
	if got := tixM.RequestScans.Value(); got != 0 {
		t.Fatalf("tix engine ran %d request-path scans", got)
	}
	if got := tixM.WindowIndexFallbacks.Value(); got != 0 {
		t.Fatalf("tix engine fell back %d times", got)
	}
	if got := scanM.RequestScans.Value(); got == 0 {
		t.Fatal("scan engine never scanned")
	}
}

// TestServeWindowEchoesItsInstant: a window echoes the instant it was
// filtered on. Two spellings of one instant are one window, so every
// answer to either echoes the instant in UTC; a fractional bound echoes
// its fraction.
func TestServeWindowEchoesItsInstant(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	e, _ := f.newTixEngine(t)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()
	since := f.cfg.Start.Add(2 * 24 * time.Hour).UTC()
	until := since.Add(5 * 24 * time.Hour)
	untilQ := "&until=" + until.Format(time.RFC3339)
	spellings := []string{
		since.In(time.FixedZone("", 2*3600)).Format(time.RFC3339),
		since.Format(time.RFC3339),
	}
	for _, path := range []string{"/api/v1/cdf?", "/api/v1/quantile?p=0.9&"} {
		var first string
		// Each spelling three times, alternating, every one a fill.
		for i := 0; i < 6; i++ {
			target := path + "since=" + url.QueryEscape(spellings[i%2]) + untilQ
			w := get(h, target)
			if w.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", target, w.Code, w.Body.String())
			}
			if i == 0 {
				first = w.Body.String()
				if want := `"since":"` + since.Format(time.RFC3339) + `"`; !strings.Contains(first, want) {
					t.Fatalf("GET %s echoes no %s: %.200s", target, want, first)
				}
			} else if got := w.Body.String(); got != first {
				t.Fatalf("GET %s (request %d) differs from the first answer:\n got %.200s\nwant %.200s", target, i+1, got, first)
			}
		}

		frac := since.Add(500 * time.Millisecond)
		target := path + "since=" + frac.Format(time.RFC3339Nano) + untilQ
		w := get(h, target)
		if want := `"since":"` + frac.Format(time.RFC3339Nano) + `"`; w.Code != http.StatusOK || !strings.Contains(w.Body.String(), want) {
			t.Errorf("GET %s: status %d, body echoes no %s: %.200s", target, w.Code, want, w.Body.String())
		}
	}
}

// TestServeWholeCampaignWindow pins which distribution each endpoint
// answers. /cdf answers every delivered RTT with or without a window, so
// a window covering the whole campaign serves the unwindowed body's
// curves. /quantile answers that distribution only with a window:
// without one it answers Figure 6's nearest-region distribution, though
// both bodies say "dist":"full".
func TestServeWholeCampaignWindow(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	e, _ := f.newTixEngine(t)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()
	decode := func(target string, v any) {
		t.Helper()
		w := get(h, target)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, w.Code, w.Body.String())
		}
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: %v", target, err)
		}
	}
	var whole, all cdfBody
	decode("/api/v1/cdf", &all)
	decode(windowTarget("/api/v1/cdf", f.cfg.Start, f.cfg.End), &whole)
	if len(all.Continents) == 0 || !reflect.DeepEqual(whole.Continents, all.Continents) {
		t.Fatalf("whole-campaign /cdf window serves other curves than the unwindowed /cdf:\n%+v\n%+v", whole.Continents, all.Continents)
	}
	delivered := map[string]int{}
	for _, c := range all.Continents {
		delivered[c.Code] = c.Samples
	}

	var windowed, unwindowed quantileBody
	decode(windowTarget("/api/v1/quantile?p=0.5", f.cfg.Start, f.cfg.End), &windowed)
	decode("/api/v1/quantile?p=0.5", &unwindowed)
	for _, c := range windowed.Continents {
		if c.Samples != delivered[c.Code] {
			t.Errorf("%s: windowed /quantile over %d samples, /cdf over %d", c.Code, c.Samples, delivered[c.Code])
		}
	}
	rep := e.view(httptest.NewRecorder()).rep.FullDist
	for _, c := range unwindowed.Continents {
		ct, err := geoParse(t, c.Code)
		if err != nil {
			t.Fatal(err)
		}
		if unwindowed.Dist != "full" || windowed.Dist != "full" || c.Samples != rep.N(ct) || c.Samples >= delivered[c.Code] {
			t.Errorf("%s: unwindowed /quantile (dist %q) over %d samples; want Figure 6's %d, fewer than the %d delivered",
				c.Code, unwindowed.Dist, c.Samples, rep.N(ct), delivered[c.Code])
		}
	}
}

// TestServeWindowedQuantile covers the windowed /quantile variant:
// values answer from the same window materialization as /cdf (index
// and scan engines byte-identical), the min distribution rejects
// windows, and each repeat of one window is one more index query with
// identical bytes.
func TestServeWindowedQuantile(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	e, m := f.newTixEngine(t)
	scanEng, _ := f.newEngine(t)
	ctx := context.Background()
	if err := e.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if err := scanEng.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	h, hScan := e.Handler(), scanEng.Handler()

	since := f.cfg.Start.Add(3 * 24 * time.Hour)
	until := f.cfg.Start.Add(17 * 24 * time.Hour)
	target := windowTarget("/api/v1/quantile?p=0.9", since, until)

	w := get(h, target)
	if w.Code != http.StatusOK {
		t.Fatalf("windowed quantile: status %d: %s", w.Code, w.Body.String())
	}
	var body quantileBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Since == "" || body.Until == "" {
		t.Fatalf("windowed response does not echo the window: %+v", body)
	}
	if len(body.Continents) == 0 {
		t.Fatal("windowed quantile served no continents")
	}

	// Reference: fold the in-memory campaign over the window and take
	// the same quantile.
	ref := make(map[geo.Continent]*stats.Dist)
	err := f.mem.ForEach(func(s results.Sample) error {
		if s.Lost || !f.world.Index.Known(s.ProbeID) {
			return nil
		}
		if s.Time.Before(since) || !s.Time.Before(until) {
			return nil
		}
		ct, ok := f.world.Index.Continent(s.ProbeID)
		if !ok {
			return nil
		}
		if ref[ct] == nil {
			ref[ct] = &stats.Dist{}
		}
		return ref[ct].Add(s.RTTms)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range body.Continents {
		ct, err := geoParse(t, c.Code)
		if err != nil {
			t.Fatal(err)
		}
		d := ref[ct]
		if d == nil {
			t.Fatalf("%s: served but absent from reference", c.Code)
		}
		if c.Samples != d.N() {
			t.Fatalf("%s: served %d samples, reference %d", c.Code, c.Samples, d.N())
		}
		want, err := d.Quantile(0.9)
		if err != nil {
			t.Fatal(err)
		}
		if c.Value != want {
			t.Fatalf("%s: served q90 %v, reference %v", c.Code, c.Value, want)
		}
	}

	// Index path and scan path serve identical bytes.
	if ws := get(hScan, target); ws.Body.String() != w.Body.String() {
		t.Fatalf("windowed quantile diverges between index and scan engines:\n%s\n%s",
			w.Body.String(), ws.Body.String())
	}

	// Each repeat is one more index query, with identical bytes.
	queries := m.WindowIndexQueries.Value()
	for i, want := range []uint64{queries + 1, queries + 2} {
		if again := get(h, target); again.Body.String() != w.Body.String() {
			t.Fatalf("request %d of the windowed quantile served different bytes", i+2)
		}
		if got := m.WindowIndexQueries.Value(); got != want {
			t.Fatalf("request %d of the windowed quantile: %d index queries, want %d", i+2, got, want)
		}
	}

	// A windowed min-RTT quantile has no pre-aggregated form: 400.
	if w := get(h, windowTarget("/api/v1/quantile?p=0.9", since, until)+"&dist=min"); w.Code != http.StatusBadRequest {
		t.Fatalf("windowed dist=min: status %d, want 400", w.Code)
	}
	// And the unwindowed endpoints still serve both dists.
	for _, dist := range []string{"full", "min"} {
		if w := get(h, "/api/v1/quantile?p=0.5&dist="+dist); w.Code != http.StatusOK {
			t.Fatalf("unwindowed dist=%s: status %d", dist, w.Code)
		}
	}
}

// TestServeFillDeadline pins the hard fill deadline: a windowed
// materialization that cannot finish inside FillTimeout answers 504
// and counts one fill timeout, with or without the index. A conditional
// request holding the snapshot's ETag never fills: it gets its 304
// under the same deadline.
func TestServeFillDeadline(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	for _, withTix := range []bool{false, true} {
		name := "scan"
		if withTix {
			name = "tix"
		}
		t.Run(name, func(t *testing.T) {
			m := NewMetrics(obs.NewRegistry())
			opt := Options{
				Workers:     2,
				Refresh:     time.Hour,
				Metrics:     m,
				FillTimeout: time.Nanosecond, // every fill blows the deadline
			}
			if withTix {
				opt.TixPath = f.store.TixPath()
			}
			e, err := NewEngine(f.store, f.world.Index, opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			if err := e.Refresh(context.Background()); err != nil {
				t.Fatal(err)
			}
			w := get(e.Handler(), "/api/v1/cdf")
			if w.Code != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
			}
			if got := m.FillTimeouts.Value(); got != 1 {
				t.Fatalf("serve_fill_timeouts_total = %d, want 1", got)
			}
			// Figures never materialize windows; they stay immune to the
			// pathological deadline.
			fig := get(e.Handler(), "/api/v1/figures/5")
			if fig.Code != http.StatusOK {
				t.Fatalf("figure under tiny fill deadline: status %d", fig.Code)
			}
			since := f.cfg.Start.Add(24 * time.Hour)
			for _, target := range []string{
				windowTarget("/api/v1/cdf", since, since.Add(48*time.Hour)),
				windowTarget("/api/v1/quantile?p=0.9", since, since.Add(48*time.Hour)),
			} {
				w := get(e.Handler(), target, "If-None-Match", fig.Header().Get("Etag"))
				if w.Code != http.StatusNotModified {
					t.Fatalf("conditional %s: status %d, want 304: %s", target, w.Code, w.Body.String())
				}
			}
			if got := m.FillTimeouts.Value(); got != 1 {
				t.Fatalf("conditional requests moved serve_fill_timeouts_total to %d", got)
			}
		})
	}
}

// TestServeAbandonedRequestStopsFill: a window fill runs under its
// request's context, so a request whose client has already gone runs
// no index query and no scan, and is not counted as a fill timeout. It
// writes nothing, and is counted as canceled, not as an answer whose
// latency the request histogram would hold.
func TestServeAbandonedRequestStopsFill(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	e, m := f.newTixEngine(t)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	since := f.cfg.Start.Add(24 * time.Hour)
	target := windowTarget("/api/v1/cdf", since, since.Add(48*time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := httptest.NewRecorder()
	e.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
	if w.Body.Len() != 0 {
		t.Fatalf("an abandoned request was answered: %s", w.Body)
	}
	if c, n := m.Requests.With("cdf", "canceled").Value(), m.RequestSeconds.With("cdf").Count(); c != 1 || n != 0 {
		t.Fatalf("abandoned request: %d canceled counts, %d latency observations; want 1, 0", c, n)
	}
	if q, s, to := m.WindowIndexQueries.Value(), m.RequestScans.Value(), m.FillTimeouts.Value(); q != 0 || s != 0 || to != 0 {
		t.Fatalf("abandoned request: %d index queries, %d scans, %d fill timeouts; want none", q, s, to)
	}
	// The same request, still wanted, answers from the index.
	if w := get(e.Handler(), target); w.Code != http.StatusOK || m.WindowIndexQueries.Value() != 1 {
		t.Fatalf("live request: status %d, %d index queries", w.Code, m.WindowIndexQueries.Value())
	}
}
