package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/results"
)

var (
	spanStart = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	spanEnd   = spanStart.Add(90 * 24 * time.Hour)
)

func requestSequence(seed uint64) []string {
	r := newRNG(seed, "windows.requests")
	return windowPaths(r, seededWindows(r, spanStart, spanEnd, 200))
}

func TestSequencesRepeatPerSeed(t *testing.T) {
	a, b, c := requestSequence(7), requestSequence(7), requestSequence(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave one request sequence")
	}
	seen := map[string]bool{}
	cdf := 0
	for _, p := range a {
		if seen[p] {
			t.Fatalf("request %s repeats: every window must miss the cache", p)
		}
		seen[p] = true
		if len(p) > 11 && p[:11] == "/api/v1/cdf" {
			cdf++
		}
	}
	if cdf < 120 || cdf > 180 {
		t.Errorf("%d of 200 requests ask /cdf, want about three in four", cdf)
	}
	// Streams of one seed are independent: the ingest sequence is not the
	// windows sequence.
	if reflect.DeepEqual(newRNG(7, "ingest.historic").next(), newRNG(7, "windows.requests").next()) {
		t.Error("two streams of one seed start alike")
	}
}

func TestSeededWindowsStayInsideTheSpan(t *testing.T) {
	for _, w := range seededWindows(newRNG(3, "t"), spanStart, spanEnd, 500) {
		if w.Since.Before(spanStart) || w.Until.After(spanEnd) || w.width() < minWindow {
			t.Fatalf("window [%v, %v) outside span or narrower than %v", w.Since, w.Until, minWindow)
		}
	}
	tr := trailingWindows(spanEnd, 8)
	if got := spanEnd.Sub(tr[0].Since); got != 24*time.Hour {
		t.Errorf("first trailing window reaches back %v, want 1 day", got)
	}
	if got := spanEnd.Sub(tr[7].Since); got != 75*24*time.Hour {
		t.Errorf("last trailing window reaches back %v, want 75 days", got)
	}
	if !tr[3].Until.IsZero() {
		t.Error("trailing windows are open-ended")
	}
}

// TestRoundsAreTheSerialStream pins the parallel in-memory generator to
// the campaign's serial sample stream: same rounds, same order, whatever
// goroutine made them.
func TestRoundsAreTheSerialStream(t *testing.T) {
	c, err := newCampaign()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got, err := c.rounds(ctx, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		var want []results.Sample
		err := c.gen(ctx, 0, 5+i, func(s results.Sample) error { want = append(want, s); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(r, want) {
			t.Fatalf("round %d: %d samples, serial stream has %d", 5+i, len(r), len(want))
		}
	}
	if _, err := c.rounds(ctx, 0, c.cfg.Rounds()+1); err == nil {
		t.Error("rounds past the campaign's end accepted")
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.95, 10}, {1, 10}, {0.01, 1}, {0, 1},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 0.95); got != 42 {
		t.Errorf("single sample: %v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{3, 0.75}, {10, 0.75}, {99, 0.75}, // no ladder percentile has ten samples beyond it
		{100, 0.90}, // rank 90, ten beyond; p95 would have five
		{199, 0.90},
		{200, 0.95},
		{3000, 0.95}, // p99 has thirty beyond but is ungated: the ladder stops at p95
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestFailuresAreCountedNotTimed drives the closed-loop client against
// a server that answers 500, hangs, or cuts bodies short: each must be
// failed-of-attempted and stay out of the latency samples.
func TestFailuresAreCountedNotTimed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Etag", `"v1"`)
		if r.Header.Get("If-None-Match") == `"v1"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		fmt.Fprint(w, "fine")
	})
	mux.HandleFunc("/500", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	release := make(chan struct{})
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	mux.HandleFunc("/short", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.Write([]byte("only this"))
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.(*net.TCPConn).Close()
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(release)

	client := newClient(200 * time.Millisecond)
	defer client.CloseIdleConnections()
	ctx := context.Background()
	var l latencies
	for _, p := range []string{"/ok", "/500", "/ok", "/hang", "/short", "/ok"} {
		timedGet(ctx, client, &l, srv.URL+p)
	}
	if l.attempted != 6 || l.failed != 3 || len(l.ms) != 3 {
		t.Fatalf("attempted=%d failed=%d samples=%d, want 6, 3, 3", l.attempted, l.failed, len(l.ms))
	}
	for _, v := range l.ms {
		if v >= 200 {
			t.Errorf("latency sample %.1f ms: the hung request leaked into the samples", v)
		}
	}
	// 304 answers a conditional request and only that.
	if rep, err := get(ctx, client, srv.URL+"/ok", `"v1"`); err != nil || rep.Status != http.StatusNotModified {
		t.Errorf("conditional GET: status %d, err %v", rep.Status, err)
	}
}
