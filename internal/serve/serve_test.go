package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
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
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, mem.Add); err != nil {
		t.Fatal(err)
	}
	meta := cfg.Meta(1, w.Probes.Len(), w.Catalog.Len())
	store, sink, err := results.Create(t.TempDir(), meta, results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	return &fixture{world: w, cfg: cfg, mem: &mem, store: store, sink: sink}
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
	f.append(t, 0, f.mem.Len())
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
	if m.CacheHits.Value() == 0 {
		t.Fatal("repeated figure requests produced no cache hits")
	}
}

func TestServeErrorShape(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.mem.Len())
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

func TestServeQuantile(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.mem.Len())
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
	f.append(t, 0, f.mem.Len())
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
	// reference's — and the identical query hits the cache without a
	// second scan.
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
	if again := get(h, target); !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) {
		t.Fatal("repeated windowed query served different bytes")
	}
	if got := m.RequestScans.Value(); got != scansBefore {
		t.Fatalf("repeated windowed query rescanned (%d -> %d)", scansBefore, got)
	}
}

// TestServeChurn exercises the cache and snapshot swap under
// concurrent readers and live appends: responses must never mix
// snapshots (one ETag, one body), a completed refresh must serve the
// new fingerprint immediately, and the final state must be
// byte-identical to a cold scan of the finished store.
func TestServeChurn(t *testing.T) {
	f := newFixture(t, 200)
	half := f.mem.Len() / 2
	f.append(t, 0, half)
	e, _ := f.newEngine(t)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()

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

	// Appender: grow the store in batches, refreshing after each. A
	// finished refresh must be visible to the very next request.
	const batches = 8
	for b := 0; b < batches; b++ {
		from := half + (f.mem.Len()-half)*b/batches
		to := half + (f.mem.Len()-half)*(b+1)/batches
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

// TestServeSeedsFromSnapshot keeps its name from when a restart resumed
// from samples.snap. The resident state is sized by the samples, so it
// is never persisted: an engine seeds by folding the store, and what it
// first publishes — Figures 4-7 and a seeded set of /cdf and /quantile
// bodies — equals a cold scan's whether samples.snap is present, absent
// or corrupt. The file is left byte- and mtime-identical, and the
// published report holds exactly the four figure passes.
func TestServeSeedsFromSnapshot(t *testing.T) {
	f := newFixture(t, 200)
	f.append(t, 0, f.mem.Len())
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
