package atlas

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/results"
)

// metricsFixture is apiFixture with telemetry attached everywhere.
func metricsFixture(t *testing.T) (*Platform, *Metrics, *Client, *httptest.Server) {
	t.Helper()
	p := smallPlatform(t)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	ledger := NewLedger()
	ledger.Instrument(m)
	if err := ledger.Grant("alice", 10000); err != nil {
		t.Fatal(err)
	}
	live, err := NewLiveService(p, ledger, 0.001, WithLiveMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	srv, err := NewServer(p, ledger, live, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	mux.Handle("GET /metrics", obs.MetricsHandler(reg))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	c, err := NewClient(ts.URL, "alice", ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return p, m, c, ts
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMiddlewareRecordsRequests(t *testing.T) {
	_, m, c, ts := metricsFixture(t)
	ctx := context.Background()

	if _, err := c.Probes(ctx, ProbeFilter{Limit: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Regions(ctx); err != nil {
		t.Fatal(err)
	}
	// A 4xx on the probes route.
	resp, err := http.Get(ts.URL + "/api/v1/probes?limit=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit = %d", resp.StatusCode)
	}

	if got := m.ReqTotal.With("probes", "2xx").Value(); got != 1 {
		t.Errorf("probes 2xx = %d, want 1", got)
	}
	if got := m.ReqTotal.With("probes", "4xx").Value(); got != 1 {
		t.Errorf("probes 4xx = %d, want 1", got)
	}
	if got := m.ReqTotal.With("regions", "2xx").Value(); got != 1 {
		t.Errorf("regions 2xx = %d, want 1", got)
	}
	if got := m.ReqDur.With("probes").Count(); got != 2 {
		t.Errorf("probes duration observations = %d, want 2", got)
	}

	expo := scrape(t, ts)
	for _, want := range []string{
		`atlas_http_requests_total{route="probes",class="2xx"} 1`,
		`atlas_http_requests_total{route="probes",class="4xx"} 1`,
		`atlas_http_requests_total{route="regions",class="2xx"} 1`,
		"# TYPE atlas_http_request_duration_seconds histogram",
		`atlas_http_request_duration_seconds_count{route="probes"} 2`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The scrape itself is not self-instrumented (no /metrics route label).
	if strings.Contains(expo, `route="metrics"`) {
		t.Error("scrape instrumented itself")
	}
}

func TestLiveMeasurementMetrics(t *testing.T) {
	p, m, c, ts := metricsFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pr := p.Population.Public()[0]
	target := p.Targets(pr)[0].Addr()
	id, err := c.CreateMeasurement(ctx, target, []int{pr.ID}, 2, 10*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := c.WaitDone(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MeasurementsCreated.Value(); got != 1 {
		t.Errorf("created = %d, want 1", got)
	}
	if got := m.MeasurementsDone.Value(); got != 1 {
		t.Errorf("done = %d, want 1", got)
	}
	if got := m.ResultsCollected.Value(); got != uint64(len(samples)) {
		t.Errorf("results collected = %d, want %d", got, len(samples))
	}
	if got := m.CreditsSpent.Value(); got != 2 {
		t.Errorf("credits spent = %d, want 2", got)
	}
	if got := m.CreditsGranted.Value(); got != 10000 {
		t.Errorf("credits granted = %d, want 10000", got)
	}
	if got := m.Ping.Sent.Value(); got < 2 {
		t.Errorf("ping sent = %d, want >= 2", got)
	}
	if got := m.Net.Sent.Value(); got < 2 {
		t.Errorf("net packets = %d, want >= 2", got)
	}
	received := m.Ping.Received.Value() + m.Ping.Timeouts.Value()
	if received < 2 {
		t.Errorf("ping received+timeouts = %d, want >= 2", received)
	}
	if m.Ping.Received.Value() > 0 && m.Ping.RTTms.Count() == 0 {
		t.Error("RTT histogram empty despite replies")
	}

	expo := scrape(t, ts)
	for _, want := range []string{
		"# TYPE atlas_measurements_done_total counter",
		"atlas_measurements_done_total 1",
		"atlas_credits_spent_total 2",
		"# TYPE ping_timeouts_total counter",
		"# TYPE ping_rtt_ms histogram",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestStatusEndpoint(t *testing.T) {
	p, _, c, ts := metricsFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pr := p.Population.Public()[0]
	target := p.Targets(pr)[0].Addr()
	id, err := c.CreateMeasurement(ctx, target, []int{pr.ID}, 1, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDone(ctx, id); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/status = %d", resp.StatusCode)
	}
	var st StatusDTO
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Probes != p.Population.Len() || st.Regions != p.Catalog.Len() {
		t.Errorf("census: %+v", st)
	}
	if st.Measurements[StatusDone] != 1 {
		t.Errorf("measurements = %v", st.Measurements)
	}
	if st.ResultsCollected != 1 {
		t.Errorf("results collected = %d", st.ResultsCollected)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v", st.UptimeSeconds)
	}
}

func TestStatusWithoutMetrics(t *testing.T) {
	// The uninstrumented fixture still serves status (zero-valued
	// telemetry) and refuses /metrics.
	p, _, c := apiFixture(t)
	resp, err := c.hc.Get(c.base + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/status = %d", resp.StatusCode)
	}
	var st StatusDTO
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Probes != p.Population.Len() {
		t.Errorf("probes = %d", st.Probes)
	}
	mresp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without registry = %d, want 404", mresp.StatusCode)
	}
}

func TestCampaignMetricsAndSpans(t *testing.T) {
	p := smallPlatform(t)
	m := NewCampaignMetrics(obs.NewRegistry())
	p.Metrics = m

	cfg := TestCampaign()
	cfg.End = cfg.Start.Add(24 * time.Hour) // 8 rounds
	span := obs.NewTrace("campaign")
	ctx := obs.ContextWith(context.Background(), span)
	var mem results.Memory
	n, err := p.RunCampaign(ctx, cfg, mem.Add)
	if err != nil {
		t.Fatal(err)
	}
	span.End()

	if got := m.Samples.Sum(); got != n {
		t.Errorf("samples counter = %d, campaign emitted %d", got, n)
	}
	if got := m.RoundsDone.Value(); got != float64(cfg.Rounds()) {
		t.Errorf("rounds done = %v, want %d", got, cfg.Rounds())
	}
	if got := m.RoundsTotal.Value(); got != float64(cfg.Rounds()) {
		t.Errorf("rounds total = %v, want %d", got, cfg.Rounds())
	}
	// Multiple continents actually contribute.
	continents := 0
	m.Samples.Walk(func(labels []string, v uint64) {
		if v > 0 {
			continents++
		}
	})
	if continents < 3 {
		t.Errorf("only %d continents sampled", continents)
	}

	// The engine's stage spans (engine.generate, results.write) sit
	// beside the round spans.
	d := span.Dump()
	rounds := 0
	var total uint64
	for _, c := range d.Children {
		if c.Name != "round" {
			continue
		}
		rounds++
		total += c.Attrs["samples"].(uint64)
	}
	if rounds != cfg.Rounds() {
		t.Fatalf("%d round spans, want %d", rounds, cfg.Rounds())
	}
	if total != n {
		t.Errorf("round spans account for %d samples, campaign emitted %d", total, n)
	}
	if d.Attrs["samples"].(uint64) != n {
		t.Errorf("root samples attr = %v, want %d", d.Attrs["samples"], n)
	}
}
