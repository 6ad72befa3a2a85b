package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/world"
)

// fixture is a built world plus a live binary store the tests append
// to in controlled steps.
type fixture struct {
	world *world.World
	cfg   atlas.CampaignConfig
	mem   *results.Memory
	n     int // samples in mem
	store *results.Store
	sink  *results.Sink
}

func newFixture(t testing.TB, probes int) *fixture {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 1, Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	var mem results.Memory
	n, err := w.Platform.RunCampaign(context.Background(), cfg, mem.Add)
	if err != nil {
		t.Fatal(err)
	}
	meta := cfg.Meta(1, w.Probes.Len(), w.Catalog.Len())
	store, sink, err := results.Create(t.TempDir(), meta, results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	return &fixture{world: w, cfg: cfg, mem: &mem, n: int(n), store: store, sink: sink}
}

// append writes the sample index range [from, to) to the store and
// seals it as complete blocks.
func (f *fixture) append(t testing.TB, from, to int) {
	t.Helper()
	i := 0
	err := f.mem.ForEach(func(s results.Sample) error {
		if i >= from && i < to {
			if err := f.sink.Write(s); err != nil {
				return err
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

// newEngine builds an engine with instruments and a manual refresh
// cadence (tests call Refresh explicitly for determinism).
func (f *fixture) newEngine(t testing.TB) (*Engine, *Metrics) {
	t.Helper()
	m := NewMetrics(obs.NewRegistry())
	e, err := NewEngine(f.store, f.world.Index, Options{
		Workers: 2,
		Refresh: time.Hour,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, m
}

// coldFigures renders the reference payloads by a from-scratch store
// scan — the exact bytes the offline figures path produces.
func (f *fixture) coldFigures(t testing.TB) map[string]*response {
	t.Helper()
	rep, _, err := core.ScanStoreSnap(context.Background(), f.store, f.world.Index,
		f.store.Meta().Start, BinWidth, 0, nil, core.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	figs, err := renderFigures(rep)
	if err != nil {
		t.Fatal(err)
	}
	return figs
}

func get(h http.Handler, target string, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServeFiguresMatchColdScan(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	e, m := f.newEngine(t)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()
	cold := f.coldFigures(t)

	for _, fig := range []string{"4", "5", "6", "7"} {
		w := get(h, "/api/v1/figures/"+fig)
		if w.Code != http.StatusOK {
			t.Fatalf("figure %s: status %d: %s", fig, w.Code, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
			t.Fatalf("figure %s: content type %q", fig, ct)
		}
		if !bytes.Equal(w.Body.Bytes(), cold[fig].body) {
			t.Fatalf("figure %s: served bytes differ from cold scan", fig)
		}
		if w.Header().Get("Etag") == "" {
			t.Fatalf("figure %s: no ETag", fig)
		}
	}

	// Conditional request: the snapshot ETag round-trips as a 304.
	etag := get(h, "/api/v1/figures/5").Header().Get("Etag")
	w := get(h, "/api/v1/figures/5", "If-None-Match", etag)
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Fatalf("conditional get: status %d body %d bytes", w.Code, w.Body.Len())
	}

	// The entire figure workload above never scanned the store.
	if got := m.RequestScans.Value(); got != 0 {
		t.Fatalf("figure requests performed %d scans, want 0", got)
	}
}

// TestServeLoopbackHeaders drives the handler over a loopback
// connection, where framing shows: every 200 body goes out with its
// Content-Length and no Transfer-Encoding. If-None-Match follows RFC
// 9110 §13.1.2: "*", or any listed tag under weak comparison on any
// header line, answers 304 with no body; a list without the tag — one
// whose quotes hold the tag after a comma included — answers 200.
func TestServeLoopbackHeaders(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	e, _ := f.newEngine(t)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	fetch := func(target string, ifNoneMatch ...string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+target, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ifNoneMatch {
			req.Header.Add("If-None-Match", v)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	cdf := windowTarget("/api/v1/cdf", f.cfg.Start.Add(26*time.Hour), time.Time{})
	for _, target := range []string{cdf, "/api/v1/quantile?p=0.9", "/api/v1/figures/5"} {
		resp, body := fetch(target)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", target, resp.StatusCode)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: %d-byte body sent with Content-Length %d, Transfer-Encoding %q",
				target, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}

	resp, _ := fetch(cdf)
	etag := resp.Header.Get("Etag")
	for _, c := range []struct {
		ifNoneMatch []string
		want        int
	}{
		{[]string{etag}, http.StatusNotModified},
		{[]string{`"x", ` + etag}, http.StatusNotModified},
		{[]string{"W/" + etag}, http.StatusNotModified},
		{[]string{"*"}, http.StatusNotModified},
		{[]string{`"x"`, `W/"y",` + etag}, http.StatusNotModified},
		{[]string{`"x", W/"y"`, `"z"`}, http.StatusOK},
		{[]string{`"a,` + etag[1:]}, http.StatusOK},
		{[]string{etag[:len(etag)-1]}, http.StatusOK},
	} {
		resp, body := fetch(cdf, c.ifNoneMatch...)
		if resp.StatusCode != c.want {
			t.Fatalf("If-None-Match %q: status %d, want %d", c.ifNoneMatch, resp.StatusCode, c.want)
		}
		if c.want == http.StatusNotModified && len(body) != 0 {
			t.Fatalf("If-None-Match %q: 304 carried a %d-byte body", c.ifNoneMatch, len(body))
		}
	}
}

func TestServeErrorShape(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	e, _ := f.newEngine(t)

	h := e.Handler()
	assertJSONError := func(w *httptest.ResponseRecorder, code int) {
		t.Helper()
		if w.Code != code {
			t.Fatalf("status %d, want %d: %s", w.Code, code, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error content type %q", ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Fatalf("error body %q not {\"error\": ...}: %v", w.Body.String(), err)
		}
	}

	// Before the first publish every endpoint declines with 503.
	assertJSONError(get(h, "/api/v1/figures/5"), http.StatusServiceUnavailable)

	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertJSONError(get(h, "/api/v1/figures/9"), http.StatusNotFound)
	if body := strings.TrimSpace(get(h, "/api/v1/figures/9").Body.String()); body != `{"error":"unknown figure \"9\" (serving 4, 5, 6, 7)"}` {
		t.Fatalf("unknown figure body %s", body)
	}
	assertJSONError(get(h, "/api/v1/quantile?p=2"), http.StatusBadRequest)
	assertJSONError(get(h, "/api/v1/quantile?p=0.5&dist=bogus"), http.StatusBadRequest)
	assertJSONError(get(h, "/api/v1/quantile?p=0.5&continent=XX"), http.StatusBadRequest)
	assertJSONError(get(h, "/api/v1/cdf?since=notatime"), http.StatusBadRequest)
	assertJSONError(get(h, "/api/v1/cdf?since=2019-09-20T00:00:00Z&until=2019-09-10T00:00:00Z"),
		http.StatusBadRequest)

	// Non-GET methods get a uniform 405 naming the allowed method.
	for _, target := range []string{"/api/v1/figures/5", "/api/v1/quantile", "/api/v1/cdf"} {
		req := httptest.NewRequest(http.MethodPost, target, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		assertJSONError(w, http.StatusMethodNotAllowed)
		if allow := w.Header().Get("Allow"); allow != "GET" {
			t.Fatalf("%s: Allow = %q, want GET", target, allow)
		}
	}
}

// The background refresher publishes appends with no caller-driven
// Refresh, and starts its passes at least Options.Refresh apart.
func TestRefresherPublishesAppends(t *testing.T) {
	f := newFixture(t, 200)
	n := f.n
	f.append(t, 0, n/3)
	const every = 100 * time.Millisecond
	e, err := NewEngine(f.store, f.world.Index, Options{Workers: 2, Refresh: every})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.Start(context.Background())
	if got, want := e.Status().CoveredBytes, f.sink.BytesWritten(); got != want {
		t.Fatalf("Start published %d bytes, store holds %d", got, want)
	}

	publish := func(from, to int) Status {
		t.Helper()
		f.append(t, from, to)
		want := f.sink.BytesWritten()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := e.Status()
			if st.CoveredBytes == want {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("refresher published %d bytes in 10s, store holds %d", st.CoveredBytes, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	first := publish(n/3, 2*n/3)
	second := publish(2*n/3, n)
	// The passes start at least every apart; each takes milliseconds on
	// this store, so their publishes land well over half of it apart.
	if gap := second.PublishedAt.Sub(first.PublishedAt); gap < every/2 {
		t.Fatalf("publishes %v apart, refresh interval %v", gap, every)
	}
}

func TestServeQuantile(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	e, _ := f.newEngine(t)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()

	rep, _, err := core.ScanStoreSnap(context.Background(), f.store, f.world.Index,
		f.store.Meta().Start, BinWidth, 0, nil, core.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, dist := range []string{"full", "min"} {
		w := get(h, "/api/v1/quantile?p=0.5&dist="+dist)
		if w.Code != http.StatusOK {
			t.Fatalf("dist=%s: status %d: %s", dist, w.Code, w.Body.String())
		}
		var body quantileBody
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Snapshot != e.Status().Snapshot {
			t.Fatalf("dist=%s: snapshot %q != status %q", dist, body.Snapshot, e.Status().Snapshot)
		}
		if len(body.Continents) == 0 {
			t.Fatalf("dist=%s: no continents", dist)
		}
		ref := rep.FullDist
		if dist == "min" {
			ref = rep.MinRTT
		}
		for _, c := range body.Continents {
			ct, err := geoParse(t, c.Code)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Quantile(ct, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if c.Value != want {
				t.Fatalf("dist=%s %s: served %v, cold scan %v", dist, c.Code, c.Value, want)
			}
		}
	}

	// Continent filter narrows the answer to one entry.
	w := get(h, "/api/v1/quantile?p=0.9&continent=EU")
	var body quantileBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Continents) != 1 || body.Continents[0].Code != "EU" {
		t.Fatalf("continent filter returned %+v", body.Continents)
	}
}

func TestServeWindowedCDF(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	e, m := f.newEngine(t)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()

	// Reference: the per-continent distribution of every delivered
	// sample, built directly from the in-memory campaign — independent
	// of the scan and pushdown machinery under test.
	refDists := func(since, until time.Time) map[geo.Continent]*stats.Dist {
		out := make(map[geo.Continent]*stats.Dist)
		err := f.mem.ForEach(func(s results.Sample) error {
			if s.Lost || !f.world.Index.Known(s.ProbeID) {
				return nil
			}
			if !since.IsZero() && s.Time.Before(since) {
				return nil
			}
			if !until.IsZero() && !s.Time.Before(until) {
				return nil
			}
			ct, ok := f.world.Index.Continent(s.ProbeID)
			if !ok {
				return nil
			}
			d := out[ct]
			if d == nil {
				d = &stats.Dist{}
				out[ct] = d
			}
			return d.Add(s.RTTms)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	assertMatches := func(body cdfBody, since, until time.Time) int {
		t.Helper()
		ref := refDists(since, until)
		grid := core.DefaultGrid()
		total := 0
		for _, c := range body.Continents {
			ct, err := geoParse(t, c.Code)
			if err != nil {
				t.Fatal(err)
			}
			d, ok := ref[ct]
			if !ok {
				t.Fatalf("%s: served but absent from reference", c.Code)
			}
			if c.Samples != d.N() {
				t.Fatalf("%s: served %d samples, reference %d", c.Code, c.Samples, d.N())
			}
			want, err := d.Curve(grid)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Curve) != len(want) {
				t.Fatalf("%s: curve length %d != %d", c.Code, len(c.Curve), len(want))
			}
			for i := range want {
				if c.Curve[i] != want[i] {
					t.Fatalf("%s: curve[%d] = %+v, reference %+v", c.Code, i, c.Curve[i], want[i])
				}
			}
			total += c.Samples
		}
		return total
	}

	// An open window covers every delivered sample.
	w := get(h, "/api/v1/cdf")
	if w.Code != http.StatusOK {
		t.Fatalf("open window: status %d: %s", w.Code, w.Body.String())
	}
	if got := m.RequestScans.Value(); got != 1 {
		t.Fatalf("open-window cdf ran %d scans, want 1", got)
	}
	var open cdfBody
	if err := json.Unmarshal(w.Body.Bytes(), &open); err != nil {
		t.Fatal(err)
	}
	total := assertMatches(open, time.Time{}, time.Time{})
	if total == 0 {
		t.Fatal("open window saw no samples")
	}

	// A one-week window sees strictly fewer samples — and exactly the
	// reference's. Each repeat of the identical query is one more scan,
	// with identical bytes.
	since := f.cfg.Start.Add(7 * 24 * time.Hour)
	until := f.cfg.Start.Add(14 * 24 * time.Hour)
	target := "/api/v1/cdf?since=" + since.Format(time.RFC3339) + "&until=" + until.Format(time.RFC3339)
	w = get(h, target)
	if w.Code != http.StatusOK {
		t.Fatalf("windowed: status %d: %s", w.Code, w.Body.String())
	}
	var windowed cdfBody
	if err := json.Unmarshal(w.Body.Bytes(), &windowed); err != nil {
		t.Fatal(err)
	}
	wtotal := assertMatches(windowed, since, until)
	if wtotal == 0 || wtotal >= total {
		t.Fatalf("windowed samples %d, want within (0, %d)", wtotal, total)
	}
	scansBefore := m.RequestScans.Value()
	for i, wantScans := range []uint64{scansBefore + 1, scansBefore + 2} {
		if again := get(h, target); !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) {
			t.Fatalf("request %d of the windowed query served different bytes", i+2)
		}
		if got := m.RequestScans.Value(); got != wantScans {
			t.Fatalf("request %d of the windowed query: %d scans, want %d", i+2, got, wantScans)
		}
	}
}

// TestServeChurn exercises the cache and snapshot swap under
// concurrent readers and live appends: responses must never mix
// snapshots (one ETag, one body), a completed refresh must serve the
// new fingerprint immediately, and the final state must be
// byte-identical to a cold scan of the finished store. The first
// published view is held across every later publish — which between
// them move some probes' nearest region — and re-rendered throughout:
// nothing the refresher does may write to what a view holds, so its
// figures and /quantile bodies keep their bytes.
func TestServeChurn(t *testing.T) {
	f := newFixture(t, 200)
	half := f.n / 2
	f.append(t, 0, half)
	e, _ := f.newEngine(t)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()

	held := e.cur.Load()
	heldWant := heldBodies(t, held)
	for key, body := range heldWant {
		r, ok := held.figures[key]
		if ok && !bytes.Equal(r.body, body) {
			t.Fatalf("figure %s re-rendered from the held view differs from its published bytes", key)
		}
		if !ok && !bytes.Equal(get(h, key).Body.Bytes(), body) {
			t.Fatalf("%s from the held view differs from the handler's body", key)
		}
	}
	checkHeld := func() error {
		for key, body := range heldBodies(t, held) {
			if !bytes.Equal(body, heldWant[key]) {
				return fmt.Errorf("%s re-rendered from the held view changed", key)
			}
		}
		return nil
	}

	// Readers hammer the API; for any one resource, an ETag must name
	// exactly one body for the whole run (the ETag is snapshot-scoped,
	// so the key is resource+ETag).
	var seen sync.Map // target + etag -> body string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			targets := []string{"/api/v1/figures/5", "/api/v1/figures/7", "/api/v1/quantile?p=0.5"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				target := targets[(r+i)%len(targets)]
				w := get(h, target)
				if w.Code != http.StatusOK {
					t.Errorf("reader: status %d: %s", w.Code, w.Body.String())
					return
				}
				key := target + "|" + w.Header().Get("Etag")
				body := w.Body.String()
				if prev, ok := seen.LoadOrStore(key, body); ok && prev.(string) != body {
					t.Errorf("%s served two different bodies", key)
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := checkHeld(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Appender: grow the store in batches, refreshing after each. A
	// finished refresh must be visible to the very next request.
	const batches = 8
	for b := 0; b < batches; b++ {
		from := half + (f.n-half)*b/batches
		to := half + (f.n-half)*(b+1)/batches
		f.append(t, from, to)
		prev := e.Status().Snapshot
		if err := e.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := e.Status()
		if st.Snapshot == prev {
			t.Fatalf("batch %d: fingerprint did not advance", b)
		}
		if w := get(h, "/api/v1/figures/5"); w.Header().Get("Etag") != etagFor(st.Snapshot) {
			t.Fatalf("batch %d: served %s after publishing %s",
				b, w.Header().Get("Etag"), etagFor(st.Snapshot))
		}
	}
	close(stop)
	wg.Wait()
	if err := checkHeld(); err != nil {
		t.Error(err)
	}
	if flips := nearestFlips(f, half); flips == 0 {
		t.Error("no publish after the held view moved a nearest region; the test needs one that does")
	}

	cold := f.coldFigures(t)
	for _, fig := range []string{"4", "5", "6", "7"} {
		w := get(h, "/api/v1/figures/"+fig)
		if !bytes.Equal(w.Body.Bytes(), cold[fig].body) {
			t.Fatalf("figure %s after churn differs from cold scan", fig)
		}
	}
	st := e.Status()
	if st.LagBytes != 0 {
		t.Fatalf("lag %d after final refresh", st.LagBytes)
	}
	if st.Samples == 0 || st.CoveredBytes == 0 {
		t.Fatalf("empty coverage in status: %+v", st)
	}
}

// TestRefreshRecordsStages pins the refresh's attribution: a publishing
// Refresh whose context carries a span records the fold, the report,
// the render and the index extend once each, as children of that span,
// with the fold's scan under the fold; a Refresh with nothing new
// records none.
func TestRefreshRecordsStages(t *testing.T) {
	f := newFixture(t, 200)
	half := f.n / 2
	f.append(t, 0, half)
	e, _ := f.newTixEngine(t)
	ctx := context.Background()
	if err := e.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	f.append(t, half, f.n)
	traced := func() map[string]int {
		t.Helper()
		root := obs.NewTrace("serve.refresh")
		if err := e.Refresh(obs.ContextWith(ctx, root)); err != nil {
			t.Fatal(err)
		}
		root.End()
		stages := map[string]int{}
		for _, c := range root.Dump().Children {
			stages[c.Name]++
			if c.Name == "refresh_fold" && (len(c.Children) != 1 || c.Children[0].Name != "scan") {
				t.Errorf("the fold's children are %+v, want its one scan", c.Children)
			}
		}
		return stages
	}
	want := map[string]int{"refresh_fold": 1, "refresh_report": 1, "refresh_render": 1, "refresh_tix_extend": 1}
	if got := traced(); !reflect.DeepEqual(got, want) {
		t.Errorf("a publishing refresh recorded %v, want %v", got, want)
	}
	if got := traced(); len(got) != 0 {
		t.Errorf("a refresh with nothing new recorded %v", got)
	}
}

// heldBodies renders what a view answers from memory: Figures 4-7,
// keyed by figure name, and the /api/v1/quantile bodies for both
// distributions at three ranks, keyed by their target, built the way
// the handler builds them.
func heldBodies(t testing.TB, v *snapshotView) map[string][]byte {
	t.Helper()
	figs, err := renderFigures(v.rep)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for fig, r := range figs {
		out[fig] = r.body
	}
	for _, dist := range []string{"full", "min"} {
		rep := v.rep.FullDist
		if dist == "min" {
			rep = v.rep.MinRTT
		}
		for _, p := range []float64{0.01, 0.5, 0.99} {
			body := quantileBody{Snapshot: v.fingerprint, Dist: dist, P: p}
			for _, ct := range rep.Continents() {
				val, err := rep.Quantile(ct, p)
				if err != nil {
					t.Fatal(err)
				}
				body.Continents = append(body.Continents, quantileDTO{
					Continent: ct.String(), Code: ct.Code(), Samples: rep.N(ct), Value: val,
				})
			}
			resp, err := jsonResponse(body, v.fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("/api/v1/quantile?p=%g&dist=%s", p, dist)] = resp.body
		}
	}
	return out
}

// nearestFlips counts the known probes whose nearest region — the
// region of their first lowest delivered RTT — over the whole campaign
// differs from the one over its first cut samples.
func nearestFlips(f *fixture, cut int) int {
	type best struct {
		region string
		rtt    float64
	}
	var before map[int]best
	cur := map[int]best{}
	i := 0
	f.mem.ForEach(func(s results.Sample) error {
		if i == cut {
			before = maps.Clone(cur)
		}
		i++
		if b, ok := cur[s.ProbeID]; !s.Lost && f.world.Index.Known(s.ProbeID) && (!ok || s.RTTms < b.rtt) {
			cur[s.ProbeID] = best{s.Region, s.RTTms}
		}
		return nil
	})
	flips := 0
	for id, b := range before {
		if cur[id].region != b.region {
			flips++
		}
	}
	return flips
}

// TestServeTornTail pins the live policy: a block the campaign is still
// writing ends what the engine folds, when it opens and when it
// refreshes, instead of failing either.
func TestServeTornTail(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n/2)
	cold := f.coldFigures(t)
	fi, err := os.Stat(f.store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	// The first bytes of a block: its length fields and a little payload.
	var enc bytes.Buffer
	cw := colf.NewWriter(&enc)
	if err := cw.Write(colf.Row{Probe: 1, Region: "r", RTT: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	blk := enc.Bytes()
	tf, err := os.OpenFile(f.store.SamplesPath(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Write(blk[colf.HeaderSize : colf.HeaderSize+12]); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}

	e, _ := f.newEngine(t)
	for i := 0; i < 2; i++ { // the first publish, then a pass with no new block
		if err := e.Refresh(context.Background()); err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
	}
	if st := e.Status(); st.CoveredBytes != fi.Size() || st.LagBytes != 0 {
		t.Fatalf("covered %d bytes with lag %d, want the %d stable bytes", st.CoveredBytes, st.LagBytes, fi.Size())
	}
	if w := get(e.Handler(), "/api/v1/figures/5"); !bytes.Equal(w.Body.Bytes(), cold["5"].body) {
		t.Fatal("figure 5 over a torn tail differs from the cold scan of the stable blocks")
	}
}

// TestServeSeedsFromSnapshot keeps its name from when a restart resumed
// from samples.snap. The resident state is sized by the samples, so it
// is never persisted: an engine seeds by folding the store, and what it
// first publishes — Figures 4-7 and a seeded set of /cdf and /quantile
// bodies — equals a cold scan's whether samples.snap is present, absent
// or corrupt. The file is left byte- and mtime-identical, and the
// published report holds exactly the four figure passes.
func TestServeSeedsFromSnapshot(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.n)
	cold := f.coldFigures(t)
	ctx := context.Background()

	start, end := f.cfg.Start, f.cfg.End
	rng := rand.New(rand.NewSource(5))
	var targets []string
	for i := 0; i < 4; i++ {
		lo := start.Add(time.Duration(rng.Int63n(int64(end.Sub(start)) / 2)))
		hi := lo.Add(time.Duration(1 + rng.Int63n(int64(end.Sub(lo)))))
		window := "since=" + lo.UTC().Format(time.RFC3339) + "&until=" + hi.UTC().Format(time.RFC3339)
		targets = append(targets, "/api/v1/cdf?"+window, fmt.Sprintf("/api/v1/quantile?p=0.%d&%s", 5+i, window))
	}
	targets = append(targets, "/api/v1/cdf", "/api/v1/quantile?p=0.5&dist=min", "/api/v1/quantile?p=0.9&dist=full&continent=EU")

	snapPath := f.store.SnapshotPath()
	states := []struct {
		name    string
		prepare func()
	}{
		{"absent", func() {}},
		{"present", func() {
			if _, err := core.UpdateSnapshot(ctx, f.store, f.world.Index, f.store.Meta().Start, BinWidth, 0, nil,
				core.SnapshotOptions{Path: snapPath}); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt", func() {
			data, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(snapPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	var want map[string][]byte
	for _, state := range states {
		state.prepare()
		before, _ := os.ReadFile(snapPath)
		beforeInfo, _ := os.Stat(snapPath)

		e, err := NewEngine(f.store, f.world.Index, Options{Refresh: time.Hour, SnapshotPath: snapPath})
		if err != nil {
			t.Fatalf("%s: %v", state.name, err)
		}
		if err := e.Refresh(ctx); err != nil {
			t.Fatalf("%s: %v", state.name, err)
		}
		h := e.Handler()
		for _, fig := range []string{"4", "5", "6", "7"} {
			if w := get(h, "/api/v1/figures/"+fig); !bytes.Equal(w.Body.Bytes(), cold[fig].body) {
				t.Errorf("%s: first published figure %s differs from a cold scan's", state.name, fig)
			}
		}
		got := map[string][]byte{}
		for _, target := range targets {
			w := get(h, target)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: %s: status %d: %s", state.name, target, w.Code, w.Body.String())
			}
			got[target] = w.Body.Bytes()
		}
		if want == nil {
			want = got
		}
		for _, target := range targets {
			if !bytes.Equal(got[target], want[target]) {
				t.Errorf("%s: %s body differs from the one served with no samples.snap", state.name, target)
			}
		}
		if rep := e.cur.Load().rep; rep.Provider != nil ||
			rep.Proximity == nil || rep.MinRTT == nil || rep.FullDist == nil || rep.LastMile == nil {
			t.Errorf("%s: published report holds %+v, want exactly the four figure passes", state.name, rep)
		}
		e.Close()

		after, _ := os.ReadFile(snapPath)
		afterInfo, _ := os.Stat(snapPath)
		if !bytes.Equal(after, before) || (beforeInfo != nil) != (afterInfo != nil) ||
			beforeInfo != nil && !afterInfo.ModTime().Equal(beforeInfo.ModTime()) {
			t.Errorf("%s: serving touched samples.snap", state.name)
		}
	}
}

// geoParse maps a continent code back to the enum for report lookups.
func geoParse(t testing.TB, code string) (geo.Continent, error) {
	t.Helper()
	ct, err := geo.ParseContinent(code)
	if err != nil {
		return ct, fmt.Errorf("bad continent code %q: %w", code, err)
	}
	return ct, nil
}
