package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/tix"
)

// enginePair is a scan-only engine and an index engine refreshed over
// the same store: any byte the two serve differently is the index
// path's fault.
type enginePair struct {
	scan, tix http.Handler
	tixM      *Metrics
	tixEng    *Engine
}

func (f *fixture) newEnginePair(t testing.TB) enginePair {
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

// appendBlocks seals the campaign into uneven blocks, then two
// synthetic tails after the campaign's end. In the first, Oceania's
// probes alone report, every sample past the 400 ms grid: a continent
// with N > 0 and all-zero bins, whose quantiles bracket to (400, +Inf).
// In the second, from dupStart, Europe's probes report from five values
// at or below 7 ms — bin 0 included — so equal samples straddle every
// rank.
func (f *fixture) appendBlocks(t testing.TB) (tailStart, dupStart time.Time) {
	t.Helper()
	n := f.n
	rng := rand.New(rand.NewSource(13))
	for from := 0; from < n; {
		to := min(from+n/45+rng.Intn(n/45), n)
		f.append(t, from, to)
		from = to
	}
	byCt := make(map[geo.Continent][]int)
	for id, ct := range f.world.Index.ContinentTable() {
		byCt[ct] = append(byCt[ct], id)
	}
	if len(byCt[geo.Oceania]) == 0 || len(byCt[geo.Europe]) == 0 {
		t.Fatal("fixture world has no Oceania or no Europe probes")
	}
	tailStart = f.cfg.End.Add(24 * time.Hour)
	dupStart = tailStart.Add(8 * time.Hour)
	dups := []float64{0.5, 1, 1, 2.5, 2.5, 2.5, 7}
	for i := 0; i < 1000; i++ {
		s := results.Sample{
			ProbeID: byCt[geo.Oceania][i%len(byCt[geo.Oceania])],
			Region:  "synth/far",
			Time:    tailStart.Add(time.Duration(i/100) * time.Hour),
			RTTms:   400.5 + float64(i),
			Lost:    i%17 == 0,
		}
		if i >= 600 {
			s.ProbeID = byCt[geo.Europe][i%len(byCt[geo.Europe])]
			s.Region = "synth/near"
			s.Time = dupStart.Add(time.Duration(i/100-6) * time.Hour)
			s.RTTms = dups[i%len(dups)]
		}
		if err := f.sink.Write(s); err != nil {
			t.Fatal(err)
		}
		if i%200 == 199 {
			if err := f.sink.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tailStart, dupStart
}

// TestServeWindowDifferential is the randomized gate on the index
// path's responses: over a few hundred windows — forced shapes first,
// then random ones at second resolution — /cdf and /quantile bodies
// from the index engine equal the scan engine's byte for byte, without
// one fallback and without one request-path scan. Last, a record whose
// CRC holds but whose slab does not (a NaN) must truncate the log when
// an engine opens it, and that engine too serves the scan's bytes.
func TestServeWindowDifferential(t *testing.T) {
	f := newFixture(t, 200)
	tailStart, dupStart := f.appendBlocks(t)
	p := f.newEnginePair(t)

	start, end := f.cfg.Start, dupStart.Add(4*time.Hour)
	type window struct{ since, until time.Time }
	wins := []window{
		{},                                  // everything: every record composed
		{since: start.Add(time.Hour)},       // opens mid-block: an edge, then a covered run
		{until: tailStart},                  // the campaign alone
		{since: tailStart, until: dupStart}, // only past-grid samples: N > 0, bins all zero, bracket (400, +Inf)
		{since: dupStart},                   // duplicates straddle every rank; p=0 ranks in bin 0
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
	sawZeroBins, refills := false, 0
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
		if !w.since.Before(tailStart) {
			// The key's second request: one more fill.
			refills++
			if strings.Contains(get(p.tix, targets[0]).Body.String(), `"code":"OC","samples":`) {
				sawZeroBins = true
			}
		}
	}
	if !sawZeroBins {
		t.Fatal("no window served the all-zero-bin continent")
	}
	if got, want := p.tixM.WindowIndexQueries.Value(), uint64(2*len(wins)-1+refills); got != want {
		t.Fatalf("index served %d of %d fills", got, want)
	}
	if fb, scans := p.tixM.WindowIndexFallbacks.Value(), p.tixM.RequestScans.Value(); fb != 0 || scans != 0 {
		t.Fatalf("index engine fell back %d times, scanned %d times", fb, scans)
	}

	path := f.store.TixPath()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := tix.Binding{PassSet: tix.PassSetCDF, Index: f.world.Index.Fingerprint(), Meta: core.MetaFingerprint(f.store.Meta())}
	recs := snap.Validate(data, b).Records
	k := len(recs) / 2
	payload := append([]byte(nil), recs[k].Payload...)
	binary.LittleEndian.PutUint64(payload[len(payload)-8:], math.Float64bits(math.NaN()))
	img := snap.AppendRecord(append([]byte(nil), data[:recs[k].Off]...), payload)
	if err := os.WriteFile(path, append(img, data[recs[k].Off+int64(recs[k].Len()):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, m := f.newTixEngine(t)
	if st, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if st.Size() != recs[k].Off {
		t.Fatalf("open kept a %d-byte sidecar over a NaN slab, want the %d bytes before it", st.Size(), recs[k].Off)
	}
	if err := reopened.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := reopened.Handler()
	for i, w := range wins[:5] {
		for _, target := range []string{
			windowTarget("/api/v1/cdf", w.since, w.until),
			windowTarget("/api/v1/quantile?p="+ps[i%len(ps)], w.since, w.until),
		} {
			if ws, wt := get(p.scan, target), get(h, target); wt.Code != http.StatusOK || !bytes.Equal(ws.Body.Bytes(), wt.Body.Bytes()) {
				t.Fatalf("%s after a NaN slab: status %d, bodies equal %v", target, wt.Code, bytes.Equal(ws.Body.Bytes(), wt.Body.Bytes()))
			}
		}
	}
	if fb, scans := m.WindowIndexFallbacks.Value(), m.RequestScans.Value(); fb != 0 || scans != 0 {
		t.Fatalf("rebuilt index fell back %d times, scanned %d times", fb, scans)
	}
}

// TestServeCDFIndexPathGate is the cost gate on the /cdf index path: a
// request composes from resident prefix rows — it reads no sidecar
// bytes, loads no slab (so nothing can reach a selection), never scans,
// and allocates a small bounded number of objects however many samples
// the window holds. A /cdf fill's Server-Timing stages, and a windowed
// /quantile's, sum to the fill.
func TestServeCDFIndexPathGate(t *testing.T) {
	f := newFixture(t, 200)
	f.appendBlocks(t)
	p := f.newEnginePair(t)

	since := f.cfg.Start.Add(26 * time.Hour)
	until := f.cfg.Start.Add(15*24*time.Hour + 7*time.Minute)
	target := windowTarget("/api/v1/cdf", since, until)
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

	// Each window fill's Server-Timing stages account for it once: they
	// sum to within 10 % of the fill, taken as the request's time less
	// what a request does besides its fill — a 304 for the same target
	// (validation, view, ETag) plus writing the same body to a fresh
	// recorder. Scheduling delay only adds time, so each part is taken at
	// its least over as many fills and baselines, alternated so that both
	// see the same load: the time in the stages, the time outside them
	// and the baseline. A /cdf builds its curves' points under encode; a
	// windowed quantile, which is what pays for slabs and selection,
	// reads its slabs inside the render.
	const fills = 41
	stageSum := func(target string, stages ...stage) {
		t.Helper()
		fill := func() (w *httptest.ResponseRecorder, staged, outside time.Duration) {
			t0 := time.Now()
			w = get(p.tix, target)
			took := time.Since(t0)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d", target, w.Code)
			}
			timing := w.Header().Get("Server-Timing")
			for _, st := range stages {
				if !strings.Contains(timing, stageNames[st]+";") {
					t.Fatalf("%s: Server-Timing %q has no %s stage", target, timing, stageNames[st])
				}
			}
			for _, metric := range strings.Split(timing, ", ") {
				_, dur, _ := strings.Cut(metric, ";dur=")
				ms, err := strconv.ParseFloat(dur, 64)
				if err != nil {
					t.Fatalf("Server-Timing %q: %v", timing, err)
				}
				staged += time.Duration(ms * float64(time.Millisecond))
			}
			return w, staged, took - staged
		}
		first, _, _ := fill()
		etag, body := first.Header().Get("Etag"), first.Body.Bytes()
		besides := func() time.Duration {
			t0 := time.Now()
			if w := get(p.tix, target, "If-None-Match", etag); w.Code != http.StatusNotModified {
				t.Fatalf("%s: conditional status %d", target, w.Code)
			}
			w := httptest.NewRecorder()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(http.StatusOK)
			w.Write(body)
			return time.Since(t0)
		}
		var staged, outside, base time.Duration
		runtime.GC()
		for i := 0; i < fills; i++ {
			_, s, o := fill()
			b := besides()
			if i == 0 {
				staged, outside, base = s, o, b
			}
			staged, outside, base = min(staged, s), min(outside, o), min(base, b)
		}
		r := float64(staged) / float64(staged+outside-base)
		t.Logf("%s: stages/fill %.3f (stages %v, outside %v, besides the fill %v)", target, r, staged, outside, base)
		if r < 0.9 || r > 1.1 {
			t.Fatalf("%s: stages sum to %.2fx the fill", target, r)
		}
	}
	stageSum(target, stageGridCompose, stageEncode)
	stageSum(windowTarget("/api/v1/quantile?p=0.9", since, until), stageSlabRead)
	if m.WindowSlabBytes.Value() == 0 || m.WindowStageSeconds.With(stageNames[stageSelect]).Count() != fills+1 {
		t.Fatalf("windowed quantile read %d slab bytes over %d selections", m.WindowSlabBytes.Value(),
			m.WindowStageSeconds.With(stageNames[stageSelect]).Count())
	}
}

// TestWindowCurvesCountsPointsAsEncode: building a window's curve
// points is encode work on the index path and on the scan fallback
// alike, so /cdf's stages cover it and not only the body rendering.
func TestWindowCurvesCountsPointsAsEncode(t *testing.T) {
	f := newFixture(t, 200)
	f.appendBlocks(t)
	scanEng, _ := f.newEngine(t)
	tixEng, _ := f.newTixEngine(t)
	pred := &colf.Predicate{Since: f.cfg.Start.Add(26 * time.Hour), Until: f.cfg.Start.Add(15 * 24 * time.Hour)}
	for _, c := range []struct {
		name string
		e    *Engine
		path stage
	}{{"scan", scanEng, stageScan}, {"index", tixEng, stageGridCompose}} {
		if err := c.e.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		var st stageTimes
		curves, err := c.e.windowCurves(context.Background(), c.e.cur.Load(), pred, &st)
		if err != nil || len(curves) == 0 {
			t.Fatalf("%s: %d curves, %v", c.name, len(curves), err)
		}
		if st[c.path] == 0 || st[stageEncode] == 0 {
			t.Errorf("%s path: %s %v, encode %v", c.name, stageNames[c.path], st[c.path], st[stageEncode])
		}
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

// TestServeCorruptSlabFallsBack damages the block records on disk after
// the engine opened and validated the index. /cdf composes from the
// prefix rows derived at open and stays correct with no fallback;
// /quantile reads the records back, fails a CRC, and falls back to the
// scan — both still byte-identical to the scan engine.
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
	// Damage the log: one byte per 4 KB across the whole of it.
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
