package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/cmdrun"
	"repro/internal/results"
	"repro/internal/serve"
)

func TestBuildServesAPI(t *testing.T) {
	app, err := build(200, 1, 0.01, "demo=500,other=100", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.live.Close()
	ts := httptest.NewServer(app.mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/regions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("regions = %d", resp.StatusCode)
	}
	var regions []struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&regions); err != nil {
		t.Fatal(err)
	}
	if len(regions) != 101 {
		t.Errorf("%d regions served", len(regions))
	}

	// Grants were applied.
	credResp, err := http.Get(ts.URL + "/api/v1/credits/demo")
	if err != nil {
		t.Fatal(err)
	}
	defer credResp.Body.Close()
	var cred struct {
		Balance int64 `json:"balance"`
	}
	if err := json.NewDecoder(credResp.Body).Decode(&cred); err != nil {
		t.Fatal(err)
	}
	if cred.Balance != 500 {
		t.Errorf("demo balance = %d", cred.Balance)
	}
}

func TestBuildRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name   string
		probes int
		scale  float64
		grants string
	}{
		{"zero probes", 0, 0.01, ""},
		{"bad scale", 200, 0, ""},
		{"malformed grant", 200, 0.01, "justaname"},
		{"bad amount", 200, 0.01, "demo=abc"},
		{"negative grant", 200, 0.01, "demo=-5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := build(tc.probes, 1, tc.scale, tc.grants, nil, nil); err == nil {
				t.Error("invalid configuration accepted")
			}
		})
	}
}

func TestBuildEmptyGrantListOK(t *testing.T) {
	if _, err := build(200, 1, 0.01, "", nil, nil); err != nil {
		t.Errorf("empty grants rejected: %v", err)
	}
}

func TestBuildServesTelemetry(t *testing.T) {
	app, err := build(200, 1, 0.01, "demo=500", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.live.Close()
	ts := httptest.NewServer(app.mux)
	defer ts.Close()

	// Prometheus exposition is live from the start.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"# TYPE atlas_credits_granted_total counter",
		"atlas_credits_granted_total 500",
		"# TYPE ping_timeouts_total counter",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// atlasd never runs a campaign, so it registers no campaign series.
	if strings.Contains(string(body), "atlas_campaign_") {
		t.Error("exposition lists atlas_campaign_* series, which atlasd never updates")
	}

	// The status snapshot reflects the built world.
	stResp, err := http.Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	var st struct {
		Probes   int             `json:"probes"`
		Regions  int             `json:"regions"`
		Uptime   float64         `json:"uptime_seconds"`
		Campaign json.RawMessage `json:"campaign"`
	}
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Probes != 200 || st.Regions != 101 {
		t.Errorf("status census = %+v", st)
	}
	if st.Campaign != nil {
		t.Errorf("status carries a campaign block: %s", st.Campaign)
	}

	// With -serve-data, the serving block says where the resident bytes
	// are, before and after windowed requests, and beside them the heap
	// they live in and the memory limit atlasd derived from it.
	cfg := atlas.TestCampaign()
	keepMemoryLimit(t)
	if err := app.enableServing(writeCampaign(t, app, cfg), time.Hour); err != nil {
		t.Fatal(err)
	}
	defer app.closeServing()
	resident := func() serve.Resident {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Serving struct {
				Samples     uint64          `json:"samples"`
				Resident    *serve.Resident `json:"resident_bytes"`
				HeapLive    uint64          `json:"heap_live_bytes"`
				HeapGoal    uint64          `json:"heap_goal_bytes"`
				MemoryLimit int64           `json:"memory_limit_bytes"`
			} `json:"serving"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if s := st.Serving; s.HeapLive == 0 || s.HeapGoal == 0 || s.MemoryLimit <= 0 ||
			(os.Getenv("GOMEMLIMIT") == "" && s.MemoryLimit == math.MaxInt64) {
			t.Fatalf("status heap live %d, goal %d, memory limit %d", s.HeapLive, s.HeapGoal, s.MemoryLimit)
		}
		r := st.Serving.Resident
		if r == nil {
			t.Fatal("status has no serving.resident_bytes")
		}
		// The row buffer is 14 bytes per delivered row plus its time runs,
		// best rows and chunk headers: under 15 per served sample.
		if r.NearestRows <= 0 || r.NearestRows >= 15*int64(st.Serving.Samples) || r.KeptSets < 0 || r.TixPrefix < 0 || r.TixDirectory < 0 {
			t.Fatalf("resident bytes %+v over %d samples", *r, st.Serving.Samples)
		}
		return *r
	}
	cdf := func(day int) []byte {
		t.Helper()
		since := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
		resp, err := http.Get(ts.URL + "/api/v1/cdf?since=" + since.Format(time.RFC3339) + "&until=" + since.Add(24*time.Hour).Format(time.RFC3339))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/cdf: status %d, %v: %s", resp.StatusCode, err, body)
		}
		return body
	}
	resident()
	for day := 0; day < 5; day++ {
		cdf(day)
	}
	resident()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"go_gc_heap_live_bytes ", "go_gc_heap_goal_bytes ", "go_gc_gomemlimit_bytes "} {
		if !strings.Contains(string(body), "\n"+want) {
			t.Errorf("exposition with -serve-data has no %s gauge", want)
		}
	}
}

// writeCampaign runs cfg on app's world into a fresh dataset directory,
// which enableServing accepts.
func writeCampaign(t *testing.T, app *app, cfg atlas.CampaignConfig) string {
	t.Helper()
	dir := t.TempDir()
	_, sink, err := results.Create(dir, cfg.Meta(1, app.world.Probes.Len(), app.world.Catalog.Len()), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.world.Platform.RunCampaign(context.Background(), cfg, sink.Write); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOneMuxMethodNotAllowed: the API's and the serving layer's route
// tables share the one mux, so a PUT to any path of either answers a
// JSON 405 whose Allow header lists that path's methods, counted under
// its own family's method_not_allowed route. /metrics answers the same
// JSON 405 through a table with zero instruments, so it is counted
// nowhere. Without -serve-data the serving paths are not mounted at all,
// nor /debug/events without a flight recorder.
func TestOneMuxMethodNotAllowed(t *testing.T) {
	app, err := build(200, 1, 0.01, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.live.Close()
	serveReq := func(method, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		app.mux.ServeHTTP(w, httptest.NewRequest(method, path, nil))
		return w
	}
	if w := serveReq(http.MethodGet, "/api/v1/cdf"); w.Code != http.StatusNotFound {
		t.Fatalf("/api/v1/cdf without -serve-data = %d, want 404", w.Code)
	}
	if w := serveReq(http.MethodGet, "/debug/events"); w.Code != http.StatusNotFound {
		t.Fatalf("/debug/events without a flight recorder = %d, want 404", w.Code)
	}

	cfg := atlas.TestCampaign()
	cfg.End = cfg.Start.Add(24 * time.Hour)
	keepMemoryLimit(t)
	if err := app.enableServing(writeCampaign(t, app, cfg), time.Hour); err != nil {
		t.Fatal(err)
	}
	defer app.closeServing()
	for path, allow := range map[string]string{
		"/api/v1/probes":                 "GET",
		"/api/v1/probes/3":               "GET",
		"/api/v1/regions":                "GET",
		"/api/v1/credits/demo":           "GET",
		"/api/v1/measurements":           "GET, POST",
		"/api/v1/measurements/1":         "GET, DELETE",
		"/api/v1/measurements/1/results": "GET",
		"/api/v1/status":                 "GET",
		"/api/v1/figures/5":              "GET",
		"/api/v1/quantile":               "GET",
		"/api/v1/cdf":                    "GET",
		"/metrics":                       "GET",
	} {
		w := serveReq(http.MethodPut, path)
		var body struct {
			Error string `json:"error"`
		}
		if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != allow ||
			w.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(w.Body.Bytes(), &body) != nil || body.Error == "" {
			t.Errorf("PUT %s: status %d, Allow %q, %s; want a JSON 405 with Allow %q",
				path, w.Code, w.Header().Get("Allow"), w.Body, allow)
		}
	}
	expo := serveReq(http.MethodGet, "/metrics").Body.String()
	for _, want := range []string{
		`atlas_http_requests_total{route="method_not_allowed",class="4xx"} 8`,
		`serve_requests_total{route="method_not_allowed",class="4xx"} 3`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestGracefulShutdown(t *testing.T) {
	app, err := build(200, 1, 0.01, "demo=500", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(app.mux)
	// Request, then shut down the way serve() does: HTTP drain first,
	// then the live service; final telemetry must not panic.
	if resp, err := http.Get(srv.URL + "/api/v1/regions"); err == nil {
		resp.Body.Close()
	}
	srv.Close()
	app.live.Close()
	logFinal(app.metrics, app.log)
	if got := app.metrics.ReqTotal.Sum(); got != 1 {
		t.Errorf("final request count = %d, want 1", got)
	}
}

// TestBuildServesFlightRecorder wires a logger-backed recorder through
// build the way main does: the build-time events must come back out of
// GET /debug/events.
func TestBuildServesFlightRecorder(t *testing.T) {
	logger, rec, err := cmdrun.Flags{}.Logger(io.Discard, "atlasd", flightRecorderSize)
	if err != nil {
		t.Fatal(err)
	}
	app, err := build(200, 1, 0.01, "demo=500", logger, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer app.live.Close()
	ts := httptest.NewServer(app.mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/events = %d", resp.StatusCode)
	}
	var d struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Component string `json:"component"`
			Msg       string `json:"msg"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Total == 0 {
		t.Fatal("flight recorder is empty after build")
	}
	seen := map[string]bool{}
	for _, e := range d.Events {
		if e.Component == "atlasd" {
			seen[e.Msg] = true
		}
	}
	for _, want := range []string{"credits granted", "world built"} {
		if !seen[want] {
			t.Errorf("/debug/events lacks %q; has %v", want, seen)
		}
	}
}

// TestHTTPServerTimeouts: every connection phase is bounded, and the
// write bound outlasts the longest window fill so its 504 still lands.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s is unset", name)
		}
	}
	if srv.WriteTimeout <= serve.DefaultFillTimeout {
		t.Errorf("WriteTimeout %v would cut off a fill that runs to its %v deadline", srv.WriteTimeout, serve.DefaultFillTimeout)
	}
}

// TestDebugServerClosesStalledRequest: a pprof client that sends half a
// request line and stalls is cut off once the header bound passes, so
// it cannot hold a connection for the life of the server. There is no
// write bound: a CPU profile streams for as long as it was asked to.
func TestDebugServerClosesStalledRequest(t *testing.T) {
	srv := newDebugServer("127.0.0.1:0")
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut off /debug/pprof/profile", srv.WriteTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /debug/pprof/ HT"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("stalled request still open past the %v header bound: %v", readHeaderTimeout, err)
	}
}
