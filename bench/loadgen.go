package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"time"
)

// rng is splitmix64: the workload sequences must not change with the
// toolchain's math/rand, so the generator lives here.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	// Fold the stream name in so each sequence (windows, probes, panel)
	// draws independently from one seed.
	s := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(stream) {
		s = (s ^ uint64(c)) * 0x100000001b3
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// window is one [Since, Until) query range, whole seconds, unaligned to
// the campaign's three-hour rounds.
type window struct{ Since, Until time.Time }

func (w window) width() time.Duration { return w.Until.Sub(w.Since) }

// minWindow keeps every window wide enough to hold at least one round,
// so no request answers from an empty window.
const minWindow = 6 * time.Hour

// seededWindows draws n distinct windows with uniform endpoints over
// [start, end).
func seededWindows(r *rng, start, end time.Time, n int) []window {
	span := int64(end.Sub(start) / time.Second)
	seen := make(map[[2]int64]bool, n)
	out := make([]window, 0, n)
	for len(out) < n {
		a, b := r.intn(span), r.intn(span)
		if a > b {
			a, b = b, a
		}
		if time.Duration(b-a)*time.Second < minWindow || seen[[2]int64{a, b}] {
			continue
		}
		seen[[2]int64{a, b}] = true
		out = append(out, window{
			Since: start.Add(time.Duration(a) * time.Second),
			Until: start.Add(time.Duration(b) * time.Second),
		})
	}
	return out
}

// trailingWindows are the dashboard's "last N days" panels: since =
// newest - d for n spans spread over [1, 75] days, until open.
func trailingWindows(newest time.Time, n int) []window {
	out := make([]window, n)
	for i := range out {
		days := 1 + 74*i/max(n-1, 1)
		out[i] = window{Since: newest.Add(-time.Duration(days) * 24 * time.Hour)}
	}
	return out
}

var quantilePs = []string{"0.5", "0.9", "0.95", "0.99"}

func windowQuery(w window) url.Values {
	q := url.Values{}
	if !w.Since.IsZero() {
		q.Set("since", w.Since.UTC().Format(time.RFC3339))
	}
	if !w.Until.IsZero() {
		q.Set("until", w.Until.UTC().Format(time.RFC3339))
	}
	return q
}

// windowPaths turns windows into request paths: three in four ask
// /api/v1/cdf (needs only the integer grids), one in four
// /api/v1/quantile (needs the Dist slabs), so a gain for one that costs
// the other shows.
func windowPaths(r *rng, ws []window) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		q := windowQuery(w)
		if r.intn(4) == 0 {
			q.Set("p", quantilePs[r.intn(int64(len(quantilePs)))])
			out[i] = "/api/v1/quantile?" + q.Encode()
		} else {
			out[i] = "/api/v1/cdf?" + q.Encode()
		}
	}
	return out
}

// nearestRank is the 1-based rank of the q-th percentile among n
// samples. The epsilon keeps products like 0.95*200 from landing a hair
// above the integer they mean.
func nearestRank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(q, len(sorted))-1]
}

// tailLadder are the percentiles a tail may be reported at. p99 and
// beyond spread too widely between restarts here to gate on (README),
// so the gated tail stops at p95.
var tailLadder = []float64{0.95, 0.90}

// fewOpsTail is the tail of a workload with too few ops for any ladder
// percentile — the batch workloads, whose ops are whole runs and
// sessions: the upper quartile (of five runs, the fourth). The
// slowest of a handful of ops swings twice as widely between identical
// runs as its median does (README, "Sizing evidence").
const fewOpsTail = 0.75

// tailQuantile picks the highest ladder percentile with at least ten
// samples beyond its rank.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-nearestRank(q, n) >= 10 {
			return q
		}
	}
	return fewOpsTail
}

// latencies collects per-op times and the failed-of-attempted tally.
// Failed ops are counted and kept out of the samples.
type latencies struct {
	ms        []float64
	attempted int
	failed    int
	busy      time.Duration // wall time inside ops, failed ones included
}

func (l *latencies) record(d time.Duration, err error) {
	l.attempted++
	l.busy += d
	if err != nil {
		l.failed++
		return
	}
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
}

func (l *latencies) sorted() []float64 {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return s
}

// requestTimeout bounds one HTTP request; a hang counts as a failure.
const requestTimeout = 10 * time.Second

// newClient is the closed-loop client: one keep-alive connection, so
// the load never has more connections than the sandbox has cores.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// reply is what one GET returned, body fully read.
type reply struct {
	Status int
	ETag   string
	Body   []byte
}

// get issues one GET and reads the whole body. Anything but 200 (or
// 304 to a conditional request) is an error, as is a body shorter than
// its Content-Length.
func get(ctx context.Context, c *http.Client, rawURL, ifNoneMatch string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return reply{}, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("GET %s: reading body: %w", rawURL, err)
	}
	rep := reply{Status: resp.StatusCode, ETag: resp.Header.Get("Etag"), Body: body}
	if rep.Status != http.StatusOK && !(rep.Status == http.StatusNotModified && ifNoneMatch != "") {
		return rep, fmt.Errorf("GET %s: status %d", rawURL, rep.Status)
	}
	return rep, nil
}

// timedGet is one closed-loop op: request, full body, latency recorded.
func timedGet(ctx context.Context, c *http.Client, l *latencies, rawURL string) (reply, error) {
	t0 := time.Now()
	rep, err := get(ctx, c, rawURL, "")
	l.record(time.Since(t0), err)
	return rep, err
}
