package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_requests_total", "requests", "route", "class")
	v.With("probes", "2xx").Add(3)
	v.With("probes", "4xx").Inc()
	v.With("regions", "2xx").Add(2)
	// Same labels return the same instance.
	v.With("probes", "2xx").Inc()
	if got := v.With("probes", "2xx").Value(); got != 4 {
		t.Errorf("probes/2xx = %d, want 4", got)
	}
	if got := v.Sum(); got != 7 {
		t.Errorf("sum = %d, want 7", got)
	}
	var seen [][]string
	v.Walk(func(labels []string, _ uint64) {
		seen = append(seen, append([]string(nil), labels...))
	})
	if len(seen) != 3 {
		t.Fatalf("walked %d instances, want 3", len(seen))
	}
	// Deterministic sorted order.
	if seen[0][0] != "probes" || seen[0][1] != "2xx" {
		t.Errorf("walk order: %v", seen)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rtt_ms", "round trips", []float64{10, 20, 100})
	for _, v := range []float64{5, 10, 15, 50, 200} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 280 {
		t.Errorf("sum = %v, want 280", got)
	}
	cumulative, total := h.snapshot()
	want := []uint64{2, 3, 4, 5} // <=10: {5,10}; <=20: +15; <=100: +50; +Inf: +200
	for i, w := range want {
		if cumulative[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, cumulative[i], w)
		}
	}
	if total != 5 {
		t.Errorf("total = %d, want 5", total)
	}
}

// TestRegistryConcurrency hammers one counter, one labeled counter, and
// one histogram from many goroutines; exact totals prove no lost updates
// (and -race proves no data races, including against a concurrent
// exposition scrape).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	v := r.CounterVec("v_total", "", "worker")
	h := r.Histogram("h_ms", "", RTTBucketsMs)
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				c.Inc()
				v.With(label).Inc()
				h.Observe(float64(i % 300))
			}
		}(w)
	}
	// Concurrent scrapes must not race with writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WriteText(&sb); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := v.Sum(); got != workers*iters {
		t.Errorf("vec sum = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("api_requests_total", "API requests by route.", "route").With("probes").Add(12)
	r.Gauge("campaign_rounds", "Rounds completed.").Set(7)
	h := r.Histogram("req_seconds", "Request latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	r.Counter("unused_total", "Never incremented but instantiated.")

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP api_requests_total API requests by route.
# TYPE api_requests_total counter
api_requests_total{route="probes"} 12
# HELP campaign_rounds Rounds completed.
# TYPE campaign_rounds gauge
campaign_rounds 7
# HELP req_seconds Request latency.
# TYPE req_seconds histogram
req_seconds_bucket{le="0.01"} 1
req_seconds_bucket{le="0.1"} 2
req_seconds_bucket{le="+Inf"} 3
req_seconds_sum 5.055
req_seconds_count 3
# HELP unused_total Never incremented but instantiated.
# TYPE unused_total counter
unused_total 0
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("x_total", "", "path").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `x_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

func TestRegistrationConflictsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	for name, fn := range map[string]func(){
		"kind change":   func() { r.Gauge("dup_total", "") },
		"label change":  func() { r.CounterVec("dup_total", "", "extra") },
		"bad name":      func() { r.Counter("0bad", "") },
		"bad label":     func() { r.CounterVec("ok_total", "", "0bad") },
		"empty buckets": func() { r.Histogram("h", "", nil) },
		"bad buckets":   func() { r.Histogram("h", "", []float64{2, 1}) },
		"bad arity":     func() { r.CounterVec("lv_total", "", "a").With("x", "y") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	// Identical re-registration is idempotent, not a panic.
	if got := r.Counter("dup_total", ""); got == nil {
		t.Error("idempotent re-registration failed")
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	var r *Registry
	var s *Span
	c.Inc()
	c.Add(2)
	g.Set(1)
	h.Observe(1)
	cv.With("x").Inc()
	gv.With("x").Set(1)
	hv.With("x").Observe(1)
	cv.Walk(func([]string, uint64) { t.Error("nil vec walked") })
	r.Counter("x_total", "").Inc()
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	s.Child("x").SetAttr("k", 1)
	s.End()
	if s.Duration() != 0 || c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil receivers leaked state")
	}
	if err := s.WriteChromeTrace(&strings.Builder{}); err != nil {
		t.Error(err)
	}
}

func TestSpanTree(t *testing.T) {
	now := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		now = now.Add(10 * time.Millisecond)
		return now
	}
	root := newTrace("run", clock)
	root.SetAttr("seed", 1)
	build := root.Child("build")
	build.End()
	campaign := root.Child("campaign")
	r1 := campaign.Child("round")
	r1.SetAttr("round", 0)
	r1.End()
	campaign.End()
	root.End()

	d := root.Dump()
	if d.Name != "run" || len(d.Children) != 2 {
		t.Fatalf("root = %+v", d)
	}
	if d.Attrs["seed"] != 1 {
		t.Errorf("attrs = %v", d.Attrs)
	}
	if d.Children[0].Name != "build" || d.Children[1].Name != "campaign" {
		t.Errorf("children = %v, %v", d.Children[0].Name, d.Children[1].Name)
	}
	if len(d.Children[1].Children) != 1 || d.Children[1].Children[0].Attrs["round"] != 0 {
		t.Errorf("round span = %+v", d.Children[1].Children)
	}
	if d.DurationMs <= 0 {
		t.Errorf("root not closed: %+v", d)
	}
	// Each span's window covers its children.
	if d.Children[1].DurationMs < d.Children[1].Children[0].DurationMs {
		t.Errorf("campaign %vms shorter than its child %vms",
			d.Children[1].DurationMs, d.Children[1].Children[0].DurationMs)
	}
	// Double End keeps the first timestamp.
	end := root.Duration()
	root.End()
	if root.Duration() != end {
		t.Error("second End moved the end time")
	}
}

// TestSpanChildSpent: a spent child is already ended, lasts exactly the
// time it was given and ends at the clock's now, inside its open parent.
func TestSpanChildSpent(t *testing.T) {
	now := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		now = now.Add(10 * time.Millisecond)
		return now
	}
	root := newTrace("run", clock)
	c := root.ChildSpent("write", 7*time.Millisecond)
	c.SetAttr("samples", 3)
	if d := c.Duration(); d != 7*time.Millisecond {
		t.Errorf("spent child lasts %v, want 7ms", d)
	}
	root.End()
	d := root.Dump()
	if len(d.Children) != 1 || d.Children[0].Name != "write" || d.Children[0].DurationMs != 7 {
		t.Fatalf("children = %+v", d.Children)
	}
	if start := d.Children[0].Start; start.Before(d.Start) || start.Add(7*time.Millisecond).After(d.Start.Add(time.Duration(d.DurationMs*float64(time.Millisecond)))) {
		t.Errorf("spent child [%v, +7ms] falls outside its parent starting %v", start, d.Start)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewTrace("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("worker")
			c.SetAttr("n", 1)
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Dump().Children); got != 16 {
		t.Errorf("%d children, want 16", got)
	}
}

func TestSpanContext(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Error("empty context has a span")
	}
	s := NewTrace("x")
	ctx = ContextWith(ctx, s)
	if From(ctx) != s {
		t.Error("span lost in context")
	}
	if got := ContextWith(context.Background(), nil); From(got) != nil {
		t.Error("nil span stored")
	}
}
