package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/results"
)

// enginePair is a scan-only engine and an index engine refreshed over
// the same store: any byte the two serve differently is the index
// path's fault.
type enginePair struct {
	scan, tix http.Handler
	tixM      *Metrics
	tixEng    *Engine
}

func (f *fixture) newEnginePair(t *testing.T) enginePair {
	t.Helper()
	scanEng, _ := f.newEngine(t)
	tixEng, tixM := f.newTixEngine(t)
	for _, e := range []*Engine{scanEng, tixEng} {
		if err := e.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tixEng.Status().Snapshot, scanEng.Status().Snapshot; got != want {
		t.Fatalf("engines publish different snapshots: %q vs %q", got, want)
	}
	return enginePair{scanEng.Handler(), tixEng.Handler(), tixM, tixEng}
}

// appendBlocks seals the campaign into uneven blocks — an odd count, so
// the dyadic decomposition strands leaves and the last block has no
// node — then a synthetic tail after the campaign's end in which
// Oceania's probes alone report, every sample past the 400 ms grid: a
// continent with N > 0 and all-zero bins.
func (f *fixture) appendBlocks(t *testing.T) (tailStart time.Time) {
	t.Helper()
	n := f.mem.Len()
	rng := rand.New(rand.NewSource(13))
	for from := 0; from < n; {
		to := min(from+n/45+rng.Intn(n/45), n)
		f.append(t, from, to)
		from = to
	}
	var oceania []int
	for id, ct := range f.world.Index.ContinentTable() {
		if ct == geo.Oceania {
			oceania = append(oceania, id)
		}
	}
	if len(oceania) == 0 {
		t.Fatal("fixture world has no Oceania probes")
	}
	tailStart = f.cfg.End.Add(24 * time.Hour)
	for i := 0; i < 600; i++ {
		err := f.sink.Write(results.Sample{
			ProbeID: oceania[i%len(oceania)],
			Region:  "synth/far",
			Time:    tailStart.Add(time.Duration(i/100) * time.Hour),
			RTTms:   400.5 + float64(i),
			Lost:    i%17 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%200 == 199 {
			if err := f.sink.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tailStart
}

// TestServeWindowDifferential is the randomized gate on the index
// path's responses: over a few hundred windows — forced shapes first,
// then random ones at second resolution — /cdf and /quantile bodies
// from the index engine equal the scan engine's byte for byte, without
// one fallback and without one request-path scan.
func TestServeWindowDifferential(t *testing.T) {
	f := newFixture(t, 200)
	tailStart := f.appendBlocks(t)
	p := f.newEnginePair(t)

	start, end := f.cfg.Start, tailStart.Add(6*time.Hour)
	type window struct{ since, until time.Time }
	wins := []window{
		{},                            // everything: nodes, stray leaves, the nodeless last block
		{since: start.Add(time.Hour)}, // opens mid-block: an edge, then an odd-aligned run
		{until: tailStart},            // the campaign alone
		{since: tailStart},            // only past-grid samples: N > 0, bins all zero
		{since: tailStart.Add(time.Hour), until: tailStart.Add(2 * time.Hour)}, // inside one block
		{since: start.Add(-48 * time.Hour), until: start.Add(-time.Second)},    // empty, before
		{since: end.Add(time.Hour), until: end.Add(2 * time.Hour)},             // empty, after
		{since: start.Add(90 * time.Minute), until: start.Add(90*time.Minute + time.Second)},
	}
	rng := rand.New(rand.NewSource(77))
	span := int64(end.Sub(start) / time.Second)
	for len(wins) < 120 {
		a, b := rng.Int63n(span), rng.Int63n(span)
		if a > b {
			a, b = b, a
		}
		wins = append(wins, window{start.Add(time.Duration(a) * time.Second), start.Add(time.Duration(b+1) * time.Second)})
	}
	ps := []string{"0", "0.5", "0.9", "0.99", "1"}
	sawZeroBins := false
	for i, w := range wins {
		targets := []string{
			windowTarget("/api/v1/cdf", w.since, w.until),
			windowTarget("/api/v1/quantile?p="+ps[i%len(ps)], w.since, w.until),
		}
		if i%7 == 0 {
			targets[1] += "&continent=EU"
		}
		for _, target := range targets {
			ws, wt := get(p.scan, target), get(p.tix, target)
			if ws.Code != http.StatusOK || wt.Code != http.StatusOK {
				t.Fatalf("%s: status scan=%d tix=%d: %s / %s", target, ws.Code, wt.Code, ws.Body.String(), wt.Body.String())
			}
			if !bytes.Equal(ws.Body.Bytes(), wt.Body.Bytes()) {
				t.Fatalf("%s: index path diverges from scan:\nscan: %.300s\ntix:  %.300s", target, ws.Body.String(), wt.Body.String())
			}
			// (An open-ended /quantile is not a window: it answers from
			// the published report and fills nothing.)
			windowed := !w.since.IsZero() || !w.until.IsZero() || strings.HasPrefix(target, "/api/v1/cdf")
			if windowed && wt.Header().Get("Server-Timing") == "" {
				t.Fatalf("%s: a filled window carries no Server-Timing header", target)
			}
		}
		if !w.since.Before(tailStart) && strings.Contains(get(p.tix, targets[0]).Body.String(), `"code":"OC","samples":`) {
			sawZeroBins = true
		}
	}
	if !sawZeroBins {
		t.Fatal("no window served the all-zero-bin continent")
	}
	if got, want := p.tixM.WindowIndexQueries.Value(), uint64(2*len(wins)-1); got != want {
		t.Fatalf("index served %d of %d fills", got, want)
	}
	if fb, scans := p.tixM.WindowIndexFallbacks.Value(), p.tixM.RequestScans.Value(); fb != 0 || scans != 0 {
		t.Fatalf("index engine fell back %d times, scanned %d times", fb, scans)
	}
}

// TestServeCDFIndexPathGate is the cost gate on the /cdf index path: a
// request composes from resident grids — it reads no sidecar bytes,
// loads no distribution (so nothing can reach Dist.materialize or a
// selection), never scans, and allocates a small bounded number of
// objects however many samples the window holds.
func TestServeCDFIndexPathGate(t *testing.T) {
	f := newFixture(t, 200)
	f.appendBlocks(t)
	p := f.newEnginePair(t)
	p.tixEng.SetCacheBypass(true)

	since := f.cfg.Start.Add(26 * time.Hour)
	until := f.cfg.Start.Add(15*24*time.Hour + 7*time.Minute)
	target := windowTarget("/api/v1/cdf", since, until)
	get(p.tix, target) // the first request may fill the leaf memo
	allocs := testing.AllocsPerRun(20, func() {
		if w := get(p.tix, target); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	})
	t.Logf("/cdf index path: %.0f allocs per request", allocs)
	// A coarse tripwire beside the counters below: the request, recorder,
	// two edge-block decodes and the body account for these; per-sample
	// work would not stay flat as windows widen.
	if allocs > 200 {
		t.Fatalf("/cdf index path allocates %.0f objects per request", allocs)
	}
	m := p.tixM
	if got := m.WindowSlabBytes.Value(); got != 0 {
		t.Fatalf("/cdf read %d slab bytes", got)
	}
	for _, st := range []stage{stageSlabRead, stageSelect, stageScan} {
		if n := m.WindowStageSeconds.With(stageNames[st]).Count(); n != 0 {
			t.Fatalf("/cdf ran the %s stage %d times", stageNames[st], n)
		}
	}
	for _, st := range []stage{stageGridCompose, stageEncode} {
		if n := m.WindowStageSeconds.With(stageNames[st]).Count(); n == 0 {
			t.Fatalf("/cdf never recorded the %s stage", stageNames[st])
		}
	}
	if fb, scans := m.WindowIndexFallbacks.Value(), m.RequestScans.Value(); fb != 0 || scans != 0 {
		t.Fatalf("fell back %d times, scanned %d times", fb, scans)
	}

	// A windowed quantile is what pays for slabs and selection.
	if w := get(p.tix, windowTarget("/api/v1/quantile?p=0.9", since, until)); w.Code != http.StatusOK {
		t.Fatalf("quantile: status %d", w.Code)
	}
	if m.WindowSlabBytes.Value() == 0 || m.WindowStageSeconds.With(stageNames[stageSelect]).Count() != 1 {
		t.Fatalf("windowed quantile read %d slab bytes over %d selections", m.WindowSlabBytes.Value(),
			m.WindowStageSeconds.With(stageNames[stageSelect]).Count())
	}
}

// TestStageNamesAreValidNames: stage names are metric label values and
// Server-Timing metric names at once; holding them to the shared naming
// rule keeps both encodings quote-free.
func TestStageNamesAreValidNames(t *testing.T) {
	for _, name := range stageNames {
		if !obs.ValidName(name) {
			t.Errorf("stage name %q is not a valid metric name", name)
		}
	}
}

// TestServeCorruptSlabFallsBack damages a node payload on disk after
// the engine opened and validated the index. /cdf composes from the
// grids decoded at open and stays correct with no fallback; /quantile
// reads the payload back, fails its CRC, and falls back to the scan —
// both still byte-identical to the scan engine.
func TestServeCorruptSlabFallsBack(t *testing.T) {
	f := newFixture(t, 200)
	f.appendBlocks(t)
	p := f.newEnginePair(t)

	path := f.store.TixPath()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Damage every node: one byte per 4 KB across the whole record log.
	for off := int64(4096); off < st.Size(); off += 4096 {
		var b [1]byte
		if _, err := w.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xA5
		if _, err := w.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}

	cdf := "/api/v1/cdf"
	if a, b := get(p.scan, cdf), get(p.tix, cdf); b.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatalf("/cdf over a damaged sidecar: status %d, bodies equal %v", b.Code, bytes.Equal(a.Body.Bytes(), b.Body.Bytes()))
	}
	if fb := p.tixM.WindowIndexFallbacks.Value(); fb != 0 {
		t.Fatalf("/cdf fell back %d times; it needs no slab", fb)
	}
	q := "/api/v1/quantile?p=0.9"
	q += "&until=" + f.cfg.End.Add(365*24*time.Hour).Format(time.RFC3339) // windowed: the index path
	if a, b := get(p.scan, q), get(p.tix, q); b.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatalf("/quantile over a damaged sidecar: status %d: %s", b.Code, b.Body.String())
	}
	if fb, scans := p.tixM.WindowIndexFallbacks.Value(), p.tixM.RequestScans.Value(); fb != 1 || scans != 1 {
		t.Fatalf("damaged slab: %d fallbacks, %d scans, want 1 and 1", fb, scans)
	}
}
