package atlas

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// apiFixture spins up the full platform + HTTP server + client stack.
func apiFixture(t *testing.T) (*Platform, *Ledger, *Client) {
	t.Helper()
	p := smallPlatform(t)
	ledger := NewLedger()
	if err := ledger.Grant("alice", 10000); err != nil {
		t.Fatal(err)
	}
	live, err := NewLiveService(p, ledger, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	srv, err := NewServer(p, ledger, live, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	c, err := NewClient(ts.URL, "alice", ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return p, ledger, c
}

func TestAPIProbeDiscovery(t *testing.T) {
	p, _, c := apiFixture(t)
	ctx := context.Background()

	all, err := c.Probes(ctx, ProbeFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(p.Population.Public()) {
		t.Errorf("listed %d probes, platform has %d public", len(all), len(p.Population.Public()))
	}

	// Country filter.
	de, err := c.Probes(ctx, ProbeFilter{Country: "DE"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range de {
		if pr.Country != "DE" {
			t.Errorf("country filter leaked %s", pr.Country)
		}
	}
	if len(de) == 0 {
		t.Error("no German probes")
	}

	// Continent + limit.
	eu, err := c.Probes(ctx, ProbeFilter{Continent: "EU", Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(eu) != 5 {
		t.Errorf("limit ignored: %d", len(eu))
	}
	for _, pr := range eu {
		if pr.Continent != "EU" {
			t.Errorf("continent filter leaked %s", pr.Continent)
		}
	}

	// Tag filter mirrors the Figure-7 methodology.
	wifi, err := c.Probes(ctx, ProbeFilter{Tag: "wifi"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range wifi {
		found := false
		for _, tag := range pr.Tags {
			if tag == "wifi" {
				found = true
			}
		}
		if !found {
			t.Errorf("probe %d lacks wifi tag: %v", pr.ID, pr.Tags)
		}
	}

	// Single probe fetch and not-found.
	if len(all) > 0 {
		var got ProbeDTO
		err := c.get(ctx, fmt.Sprintf("/api/v1/probes/%d", all[0].ID), &got)
		if err != nil || got.ID != all[0].ID {
			t.Errorf("Probe(%d) = %+v, %v", all[0].ID, got, err)
		}
	}
	if err := c.get(ctx, "/api/v1/probes/999999", &ProbeDTO{}); err == nil {
		t.Error("missing probe fetched")
	}
}

func TestAPIRegions(t *testing.T) {
	p, _, c := apiFixture(t)
	regions, err := c.Regions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != p.Catalog.Len() {
		t.Errorf("listed %d regions, want %d", len(regions), p.Catalog.Len())
	}
	seen := map[string]bool{}
	for _, r := range regions {
		if r.Addr == "" || r.Provider == "" || r.Country == "" {
			t.Errorf("incomplete region DTO %+v", r)
		}
		seen[r.Provider] = true
	}
	if len(seen) != 7 {
		t.Errorf("%d providers via API, want 7", len(seen))
	}
}

func TestAPIMeasurementLifecycle(t *testing.T) {
	p, ledger, c := apiFixture(t)
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
	if len(samples) != 2 {
		t.Fatalf("got %d samples", len(samples))
	}
	for _, s := range samples {
		if s.ProbeID != pr.ID || s.Region != target {
			t.Errorf("sample misattributed: %+v", s)
		}
	}
	balance, spent, err := c.Credits(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if spent != 2 || balance != ledger.Balance("alice") {
		t.Errorf("credits: balance=%d spent=%d", balance, spent)
	}
}

func TestAPIErrors(t *testing.T) {
	p, _, c := apiFixture(t)
	ctx := context.Background()

	// Bad measurement spec -> 400 with error payload.
	if _, err := c.CreateMeasurement(ctx, "Nope/x", []int{1}, 1, 0, time.Second); err == nil {
		t.Error("bad target accepted")
	}
	// Unknown measurement.
	if _, err := c.Measurement(ctx, 99999); err == nil {
		t.Error("missing measurement fetched")
	}
	if _, err := c.Results(ctx, 99999); err == nil {
		t.Error("missing results fetched")
	}
	// Broke account -> 402.
	broke, err := NewClient(c.base, "broke", c.hc)
	if err != nil {
		t.Fatal(err)
	}
	pr := p.Population.Public()[0]
	target := p.Targets(pr)[0].Addr()
	if _, err := broke.CreateMeasurement(ctx, target, []int{pr.ID}, 1, 0, time.Second); err == nil {
		t.Error("insufficient credits accepted")
	}
}

func TestAPIBadRequests(t *testing.T) {
	p := smallPlatform(t)
	ledger := NewLedger()
	live, err := NewLiveService(p, ledger, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	srv, err := NewServer(p, ledger, live, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/api/v1/probes?limit=abc", http.StatusBadRequest},
		{"/api/v1/probes?continent=Atlantis", http.StatusBadRequest},
		{"/api/v1/probes/notanumber", http.StatusBadRequest},
		{"/api/v1/measurements/notanumber", http.StatusBadRequest},
		{"/api/v1/nosuch", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}

	// Hostile POST bodies: empty, over the size cap, and millisecond
	// counts whose Duration would overflow (18446744073710 ms wraps to
	// about 0.45 ms) on an otherwise valid, affordable spec.
	if err := ledger.Grant("alice", 1000); err != nil {
		t.Fatal(err)
	}
	pr := p.Population.Public()[0]
	valid := fmt.Sprintf(`"account":"alice","target":%q,"probe_ids":[%d],"count":1`, p.Targets(pr)[0].Addr(), pr.ID)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"empty", "", http.StatusBadRequest},
		{"oversized", `{"account":"` + strings.Repeat("a", maxCreateBody) + `"}`, http.StatusRequestEntityTooLarge},
		{"interval overflow", `{` + valid + `,"interval_ms":18446744073710,"timeout_ms":1000}`, http.StatusBadRequest},
		{"timeout overflow", `{` + valid + `,"interval_ms":0,"timeout_ms":18446744073710}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/api/v1/measurements", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s POST = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient("", "a", nil); err == nil {
		t.Error("empty base accepted")
	}
	if _, err := NewClient("http://x", "", nil); err == nil {
		t.Error("empty account accepted")
	}
	if _, err := NewClient("http://x", "a", nil); err != nil {
		t.Errorf("nil http client rejected: %v", err)
	}
}

func TestStopMeasurement(t *testing.T) {
	p, ledger, c := apiFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pr := p.Population.Public()[0]
	target := p.Targets(pr)[0].Addr()
	// A long measurement: 50 pings spaced 100ms apart (scaled) would take
	// far longer than the test; stop it early.
	id, err := c.CreateMeasurement(ctx, target, []int{pr.ID}, 50, 200*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spentBefore := ledger.Spent("alice")
	if spentBefore < 50 {
		t.Fatalf("spent = %d, want >= 50", spentBefore)
	}
	time.Sleep(20 * time.Millisecond) // let a few rounds land
	if err := stopMeasurement(ctx, c, id); err != nil {
		t.Fatal(err)
	}
	m, err := c.Measurement(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != StatusStopped {
		t.Errorf("status = %s", m.Status)
	}
	// The unused charge was refunded: net spend equals collected results.
	samples, err := c.Results(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) >= 50 {
		t.Errorf("measurement was not stopped early: %d samples", len(samples))
	}
	wantSpend := int64(len(samples)) * CostPerPing
	if got := ledger.Spent("alice"); got != wantSpend {
		t.Errorf("net spend = %d, want %d (for %d collected samples)", got, wantSpend, len(samples))
	}
	// Stopping again conflicts.
	if err := stopMeasurement(ctx, c, id); err == nil {
		t.Error("double stop accepted")
	}
	// Stopping a missing measurement conflicts.
	if err := stopMeasurement(ctx, c, 99999); err == nil {
		t.Error("stop of unknown measurement accepted")
	}
}

// Concurrent stops of one measurement refund it once: exactly one
// caller succeeds, and net spend is the stopped measurements' collected
// samples plus the full charge of another one still running. The race
// is run over many measurements so a double refund cannot hide.
func TestStopMeasurementConcurrent(t *testing.T) {
	p := smallPlatform(t)
	ledger := NewLedger()
	if err := ledger.Grant("alice", 5000); err != nil {
		t.Fatal(err)
	}
	live, err := NewLiveService(p, ledger, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	pr := p.Population.Public()[0]
	// An hour's interval (3.6 s at this time scale) keeps every
	// measurement running until it is stopped.
	spec := MeasurementSpec{Target: p.Targets(pr)[0].Addr(), ProbeIDs: []int{pr.ID}, Count: 100, Interval: time.Hour, Timeout: 5 * time.Second}
	other, err := live.Create("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Stop(other)

	const rounds, callers = 50, 8
	want := spec.Cost()
	spec.Count = 50
	for round := 0; round < rounds; round++ {
		id, err := live.Create("alice", spec)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = live.Stop(id)
			}()
		}
		close(start)
		wg.Wait()
		ok := 0
		for _, err := range errs {
			if err == nil {
				ok++
			}
		}
		if ok != 1 {
			t.Errorf("round %d: %d of %d concurrent stops succeeded, want 1", round, ok, callers)
		}
		m, _ := live.Get(id)
		want += int64(len(m.Results)) * CostPerPing
	}
	if got := ledger.Spent("alice"); got != want {
		t.Errorf("net spend = %d, want %d (collected samples + the running measurement's charge)", got, want)
	}
}

// stopMeasurement cancels a measurement through the API's DELETE.
func stopMeasurement(ctx context.Context, c *Client, id int) error {
	return c.do(ctx, http.MethodDelete, fmt.Sprintf("/api/v1/measurements/%d", id), nil, nil)
}

// listMeasurements lists c's account's measurements.
func listMeasurements(ctx context.Context, c *Client) ([]Measurement, error) {
	var out []Measurement
	err := c.get(ctx, "/api/v1/measurements?account="+c.account, &out)
	return out, err
}

func TestListMeasurements(t *testing.T) {
	p, _, c := apiFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Nothing yet.
	ms, err := listMeasurements(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("fresh account has %d measurements", len(ms))
	}
	pr := p.Population.Public()[0]
	target := p.Targets(pr)[0].Addr()
	id1, err := c.CreateMeasurement(ctx, target, []int{pr.ID}, 1, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.CreateMeasurement(ctx, target, []int{pr.ID}, 1, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ms, err = listMeasurements(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].ID != id1 || ms[1].ID != id2 {
		t.Fatalf("listed %+v", ms)
	}
	for _, m := range ms {
		if m.Results != nil {
			t.Error("listing leaked results")
		}
		if m.Account != "alice" {
			t.Errorf("account filter leaked %q", m.Account)
		}
	}
	// Another account sees nothing.
	other, err := NewClient(c.base, "other", c.hc)
	if err != nil {
		t.Fatal(err)
	}
	ms, err = listMeasurements(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("other account sees %d measurements", len(ms))
	}
}

// TestMethodNotAllowed: a method the API does not serve on a known path
// answers 405 with that path's methods in the Allow header, in route
// table order, and counts under the method_not_allowed route.
func TestMethodNotAllowed(t *testing.T) {
	p, ledger := smallPlatform(t), NewLedger()
	live, err := NewLiveService(p, ledger, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	m := NewMetrics(obs.NewRegistry())
	srv, err := NewServer(p, ledger, live, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	for path, allow := range map[string]string{
		"/api/v1/probes":                 "GET",
		"/api/v1/probes/3":               "GET",
		"/api/v1/regions":                "GET",
		"/api/v1/credits/alice":          "GET",
		"/api/v1/measurements":           "GET, POST",
		"/api/v1/measurements/1":         "GET, DELETE",
		"/api/v1/measurements/1/results": "GET",
		"/api/v1/status":                 "GET",
	} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPut, path, nil))
		if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != allow {
			t.Errorf("PUT %s: status %d, Allow %q; want 405, Allow %q", path, w.Code, w.Header().Get("Allow"), allow)
		}
	}
	if got := m.ReqTotal.With("method_not_allowed", "4xx").Value(); got != 8 {
		t.Errorf("method_not_allowed counted %d requests, want 8", got)
	}
}
