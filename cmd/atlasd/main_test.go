package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func TestBuildServesAPI(t *testing.T) {
	h, err := build(200, 1, 0.01, "demo=500,other=100", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
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
	ts := httptest.NewServer(app)
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

	// The status snapshot reflects the built world.
	stResp, err := http.Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	var st struct {
		Probes  int     `json:"probes"`
		Regions int     `json:"regions"`
		Uptime  float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Probes != 200 || st.Regions != 101 {
		t.Errorf("status census = %+v", st)
	}
}

func TestGracefulShutdown(t *testing.T) {
	app, err := build(200, 1, 0.01, "demo=500", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(app)
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
	rec := obs.NewRecorder(flightRecorderSize)
	logger := obs.NewLogger(io.Discard, obs.WithRecorder(rec)).With("atlasd")
	app, err := build(200, 1, 0.01, "demo=500", logger, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer app.live.Close()
	ts := httptest.NewServer(app)
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
