package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a fill's allocations are the handler's and not a recorder's.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(status int) {
	d.status = status
}
func (d *discardWriter) Write(b []byte) (int, error) {
	d.n += len(b)
	return len(b), nil
}

// TestWarmWindowFillAllocs is the allocation gate on warm window fills:
// a windowed /cdf and a windowed /quantile that repeat a window already
// served — its edge blocks coded, the pools holding a Result and a body
// buffer — go through Engine.Handler() and each allocate at most 8 KB.
// The counts, the edge values, the slab chunks, the gather candidates
// and the ~100 KB /cdf body are all reused; what is left is the
// request's own bookkeeping.
func TestWarmWindowFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what is put back")
	}
	f := newFixture(t, 200)
	f.appendBlocks(t)
	p := f.newEnginePair(t)
	since := f.cfg.Start.Add(26 * time.Hour)
	until := f.cfg.Start.Add(15*24*time.Hour + 7*time.Minute)
	for _, path := range []string{"/api/v1/cdf", "/api/v1/quantile?p=0.9"} {
		target := windowTarget(path, since, until)
		req := httptest.NewRequest(http.MethodGet, target, nil)
		w := &discardWriter{h: http.Header{}}
		fill := func() {
			clear(w.h)
			w.status, w.n = 0, 0
			p.tix.ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("%s: status %d, %d body bytes", target, w.status, w.n)
			}
		}
		for range 3 {
			fill()
		}
		const fills = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range fills {
			fill()
		}
		runtime.ReadMemStats(&after)
		perFill := (after.TotalAlloc - before.TotalAlloc) / fills
		t.Logf("%s: %d bytes allocated per warm fill of a %d-byte body", path, perFill, w.n)
		if perFill > 8<<10 {
			t.Errorf("%s: a warm fill allocates %d bytes; the gate is 8 KB", path, perFill)
		}
	}
	if fb, scans := p.tixM.WindowIndexFallbacks.Value(), p.tixM.RequestScans.Value(); fb != 0 || scans != 0 {
		t.Fatalf("fell back %d times, scanned %d times", fb, scans)
	}
}

// TestConcurrentFillsKeepTheirBodies drives the pooled Results and body
// buffers from several clients at once, each requesting windows the
// others do not: every /cdf and /quantile body must equal the one the
// index-less engine serves, and the figure bodies — rendered at
// publish and shared, never pooled — must come out byte-identical
// after the fills. Run it under -race.
func TestConcurrentFillsKeepTheirBodies(t *testing.T) {
	f := newFixture(t, 200)
	f.appendBlocks(t)
	p := f.newEnginePair(t)

	const clients, perClient = 4, 6
	var targets [clients][]string
	want := map[string][]byte{}
	for c := range targets {
		for i := range perClient {
			since := f.cfg.Start.Add(time.Duration(c*perClient+i) * 7 * time.Hour)
			until := since.Add(time.Duration(2+i) * 24 * time.Hour)
			for _, path := range []string{"/api/v1/cdf", fmt.Sprintf("/api/v1/quantile?p=0.%d", 1+i)} {
				target := windowTarget(path, since, until)
				w := get(p.scan, target)
				if w.Code != http.StatusOK {
					t.Fatalf("%s: scan engine answered %d", target, w.Code)
				}
				targets[c] = append(targets[c], target)
				want[target] = w.Body.Bytes()
			}
		}
	}
	figs := map[string][]byte{}
	for _, fig := range ServedFigures {
		figs[fig] = bytes.Clone(get(p.tix, "/api/v1/figures/"+fig).Body.Bytes())
	}

	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				for _, target := range targets[c] {
					w := get(p.tix, target)
					if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want[target]) {
						t.Errorf("%s: status %d, body differs from the index-less engine's:\n got %.200s\nwant %.200s",
							target, w.Code, w.Body.Bytes(), want[target])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for fig, body := range figs {
		if got := get(p.tix, "/api/v1/figures/"+fig).Body.Bytes(); !bytes.Equal(got, body) {
			t.Errorf("figure %s changed across the fills", fig)
		}
	}
	if fb, scans := p.tixM.WindowIndexFallbacks.Value(), p.tixM.RequestScans.Value(); fb != 0 || scans != 0 {
		t.Fatalf("fell back %d times, scanned %d times", fb, scans)
	}
}
