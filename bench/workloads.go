package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/colf"
	"repro/internal/results"
	"repro/internal/serve"
	"repro/internal/snap"
)

// sizing fixes how much work each workload does. Every workload runs a
// fixed, seed-derived op sequence — fixed work, not fixed duration —
// because peak RSS, bytes on disk and the latency of ops on a growing
// store all depend on how many ops ran.
type sizing struct {
	setups int // times set-up runs; setup_s is the median

	paperDays     int // campaign length of one timed shears run
	paperWarmDays int // the untimed warm-up run
	paperRuns     int

	reEpochs   int // epochs in the store before the first session
	reSessions int

	winEpochs   int // epochs in the static served store
	winRequests int

	ingEpochs   int // epochs in the served store before the first cycle
	ingRounds   int // rounds one cycle appends
	ingCycles   int
	ingTrailing int // "last N days" panels per cycle
	ingHistoric int // seeded historic windows per cycle

	traceEpochs   int // dataset of the traced run
	traceWindows  int // window sequence length in the traced run
	traceHits     int // cached requests per hit-path probe
	traceIngest   int // epochs appended in the traced ingest shape
	tracePathRTTs int // netem Path.RTT calls
}

// sizeFor scales op counts from the nominal run so that the timed phase
// takes about `seconds` on the sandbox this was sized on (2 cores; see
// README), never dropping below the counts that keep medians and tails
// steady.
func sizeFor(seconds int) sizing {
	scale := func(n, floor int) int { return max(n*seconds/runSeconds, floor) }
	return sizing{
		setups:        3,
		paperDays:     40,
		paperWarmDays: 7,
		paperRuns:     scale(5, 3),
		reEpochs:      30,
		reSessions:    scale(15, 6),
		winEpochs:     30,
		winRequests:   scale(3500, 3000),
		ingEpochs:     20,
		ingRounds:     4,
		ingCycles:     scale(130, 100),
		ingTrailing:   8,
		ingHistoric:   8,
		traceEpochs:   15,
		traceWindows:  300,
		traceHits:     20000,
		traceIngest:   8,
		tracePathRTTs: 200000,
	}
}

// smokeSize is the tiny scale the package's tests run every workload at.
func smokeSize() sizing {
	return sizing{
		setups:        1,
		paperDays:     7,
		paperWarmDays: 2,
		paperRuns:     2,
		reEpochs:      3,
		reSessions:    2,
		winEpochs:     3,
		winRequests:   50,
		ingEpochs:     3,
		ingRounds:     4,
		ingCycles:     3,
		ingTrailing:   2,
		ingHistoric:   2,
		traceEpochs:   3,
		traceWindows:  30,
		traceHits:     500,
		traceIngest:   2,
		tracePathRTTs: 2000,
	}
}

// result is one run's outcome in the contract's shape, plus the lines
// of the human-readable report.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Notes     []string
}

func (r *result) notef(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// check records one output check; any failure makes the run incorrect.
func (r *result) check(ok bool, format string, a ...any) {
	verdict := "ok"
	if !ok {
		verdict = "MISMATCH"
		r.Correct = false
	}
	r.notef("check %s: %s", verdict, fmt.Sprintf(format, a...))
}

// repeatSetup runs setup n times and keeps the last; setup_s is the
// median of the n times, so one slow build does not stand for all.
// discard tears a set-up down and must accept a partly built one.
func repeatSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var kept T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(kept)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			discard(v) // whatever the failed set-up had built so far
			var zero T
			return zero, 0, fmt.Errorf("set-up %d of %d: %w", i+1, n, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		kept = v
	}
	sort.Float64s(secs)
	return kept, percentile(secs, 0.5), nil
}

// finish fills the end-to-end metrics every workload reports.
//
// work is what ops_per_s counts (samples, jobs, requests) per second of
// wall time inside the timed ops, u the children's CPU and peak RSS over
// the timed phase.
func (r *result) finish(l *latencies, opName string, setupS, work float64, u usage, diskBytes int64, samples uint64) {
	r.Attempted, r.Failed = l.attempted, l.failed
	s := l.sorted()
	q := tailQuantile(len(s))
	r.Metrics = map[string]float64{
		"setup_s":               setupS,
		"op_ms":                 percentile(s, 0.5),
		"op_tail_ms":            percentile(s, q),
		"ops_per_s":             work / l.busy.Seconds(),
		"cpu_ms_per_op":         float64(u.CPU) / float64(time.Millisecond) / float64(max(len(s), 1)),
		"peak_rss_mb":           float64(u.PeakKB) / 1024,
		"disk_bytes_per_sample": float64(diskBytes) / float64(max(samples, 1)),
	}
	r.notef("op = %s; %d samples; op_ms is p50, op_tail_ms is p%g", opName, len(s), q*100)
	if len(s) == 0 {
		r.Correct = false
		r.notef("no op succeeded")
	}
}

func rowsOf(store *results.Store) (uint64, error) {
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		return 0, err
	}
	defer closer.Close()
	return r.Rows(), nil
}

// ---------------------------------------------------------------------
// paper_run

var figureCSVs = []string{"figure4.csv", "figure5.csv", "figure6.csv", "figure7.csv", "figure8.csv"}

func shearsArgs(days int, out, figdir string) []string {
	return []string{"-full", "-days", strconv.Itoa(days), "-seed", strconv.FormatUint(worldSeed, 10),
		"-workers", strconv.Itoa(childProcs), "-out", out, "-figdir", figdir,
		"-progress", "0", "-log-level", "error"}
}

// digestRun hashes what a shears run produced: the dataset and every
// dataset-derived figure CSV.
func digestRun(out, figdir string) (map[string]string, error) {
	d := map[string]string{}
	paths := map[string]string{"samples.bin": filepath.Join(out, "samples.bin")}
	for _, f := range figureCSVs {
		paths[f] = filepath.Join(figdir, f)
	}
	for name, p := range paths {
		sum, err := fileSHA256(p)
		if err != nil {
			return nil, err
		}
		d[name] = sum
	}
	return d, nil
}

func runPaper(ctx context.Context, e *env, seed uint64, sz sizing) (*result, error) {
	base, setupS, err := repeatSetup(sz.setups, func() (string, error) {
		dir, err := e.tempDir("paper-")
		if err != nil {
			return "", err
		}
		_, err = e.runChild(ctx, "shears", shearsArgs(sz.paperWarmDays, filepath.Join(dir, "warm"), filepath.Join(dir, "warmfig"))...)
		return dir, err
	}, func(dir string) { os.RemoveAll(dir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	res := &result{Correct: true}
	var (
		l       latencies
		u       opUsage
		samples uint64
		disk    int64
		first   map[string]string
	)
	for i := 0; i < sz.paperRuns; i++ {
		out := filepath.Join(base, fmt.Sprintf("run%d", i))
		figdir := filepath.Join(base, fmt.Sprintf("fig%d", i))
		c, err := e.runChild(ctx, "shears", shearsArgs(sz.paperDays, out, figdir)...)
		l.record(c.Wall, err)
		u.add(c.Usage)
		if err != nil {
			res.notef("run %d failed: %v", i, err)
			continue
		}
		store, err := results.Open(out)
		if err != nil {
			return nil, err
		}
		n, err := rowsOf(store)
		if err != nil {
			return nil, err
		}
		samples += n
		if disk, err = dirBytes(out); err != nil {
			return nil, err
		}
		d, err := digestRun(out, figdir)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = d
		}
		same := true
		for k, v := range first {
			same = same && d[k] == v
		}
		res.check(same, "run %d: samples.bin %.12s and %d figure CSV digests equal run 0's (%d samples)", i, d["samples.bin"], len(figureCSVs), n)
		os.RemoveAll(out)
		os.RemoveAll(figdir)
	}
	perRun := samples / uint64(max(len(l.ms), 1))
	res.finish(&l, fmt.Sprintf("one shears -full -days %d run", sz.paperDays), setupS, float64(samples), u.total(), disk, perRun)
	res.notef("ops_per_s counts samples; %d samples per run", perRun)
	return res, nil
}

// ---------------------------------------------------------------------
// reanalyze

// job is one analyst command: a fresh child process over the store.
type job struct {
	bin  string
	args []string
}

// sessionJobs is the fixed job list of one analyst session: snapshot
// resumes, cold scans, zone-skipping windowed scans and one index
// window, each in its own process.
func sessionJobs(dir string, windows []window) []job {
	figs := func(fig string, extra ...string) job {
		args := append([]string{"-data", dir, "-probes", strconv.Itoa(paperProbes), "-seed", strconv.FormatUint(worldSeed, 10),
			"-workers", strconv.Itoa(childProcs), "-fig", fig, "-csv", "-log-level", "error"}, extra...)
		return job{"figures", args}
	}
	data := func(args ...string) job {
		return job{"dataset", append([]string{"-data", dir, "-workers", strconv.Itoa(childProcs)}, args...)}
	}
	jobs := []job{
		figs("4"), figs("5"), figs("6"), figs("7"),
		figs("5", "-snapshot", "off"),
		data("stats"), data("hist"),
	}
	rfc := func(t time.Time) string { return t.UTC().Format(time.RFC3339) }
	for _, w := range windows[:len(windows)-1] {
		jobs = append(jobs, data("-since", rfc(w.Since), "-until", rfc(w.Until), "stats"))
	}
	last := windows[len(windows)-1]
	return append(jobs, data("-window", rfc(last.Since)+","+rfc(last.Until), "window"))
}

// sessionWindows is how many seeded windows a session queries: four
// zone-skipping scans and one index window.
const sessionWindows = 5

// served is a store the bench wrote plus, for the serve workloads, the
// atlasd child over it.
type served struct {
	dir     string
	store   *results.Store
	sink    *results.Sink // nil once finalized
	f       *os.File      // read handle on the samples file; nil if unused
	srv     *server
	rounds  int // rounds the store holds
	samples uint64
	etag    string // ETag of the newest snapshot the bench has seen
}

// close tears the state down; it accepts a partly built one.
func (s *served) close() {
	if s == nil {
		return
	}
	if s.srv != nil {
		s.srv.stop()
	}
	if s.f != nil {
		s.f.Close()
	}
	if s.sink != nil {
		s.sink.Close()
	}
	os.RemoveAll(s.dir)
}

// newServed writes base into a fresh store under a temp dir. With
// finalize the sink is closed (the file gets its block index), else it
// stays open for appends.
func newServed(e *env, camp *campaign, pattern string, base [][]results.Sample, finalize bool) (*served, error) {
	s := &served{rounds: len(base)}
	var err error
	if s.dir, err = e.tempDir(pattern); err != nil {
		return s, err
	}
	if s.store, s.sink, s.samples, err = camp.createStore(s.dir, base); err != nil {
		return s, err
	}
	if finalize {
		err = s.sink.Close()
		s.sink = nil
	}
	return s, err
}

// runSession runs the session's jobs in order; it returns the stdout of
// each, the wall time inside children and their usage.
func runSession(ctx context.Context, e *env, jobs []job) ([][]byte, time.Duration, usage, error) {
	var (
		outs [][]byte
		wall time.Duration
		u    usage
	)
	for _, j := range jobs {
		c, err := e.runChild(ctx, j.bin, j.args...)
		wall += c.Wall
		u.add(c.Usage)
		if err != nil {
			return outs, wall, u, err
		}
		outs = append(outs, c.Stdout)
	}
	return outs, wall, u, nil
}

func runReanalyze(ctx context.Context, e *env, seed uint64, sz sizing) (*result, error) {
	camp, err := newCampaign()
	if err != nil {
		return nil, err
	}
	// Inputs: the stored prefix and the epochs that land later.
	all, err := camp.rounds(ctx, 0, (sz.reEpochs+sz.reSessions)*epochRounds)
	if err != nil {
		return nil, err
	}
	base := all[:sz.reEpochs*epochRounds]

	st, setupS, err := repeatSetup(sz.setups, func() (*served, error) {
		s, err := newServed(e, camp, "reanalyze-", base, true)
		if err != nil {
			return s, err
		}
		// The warm-up session builds both sidecars, as an analyst's first
		// visit to a freshly copied dataset would.
		warm := seededWindows(newRNG(seed, "reanalyze.warm"), camp.cfg.Start, camp.roundTime(s.rounds), sessionWindows)
		_, _, _, err = runSession(ctx, e, sessionJobs(s.dir, warm))
		return s, err
	}, (*served).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	res := &result{Correct: true}
	wrng := newRNG(seed, "reanalyze.windows")
	var (
		l    latencies
		u    opUsage
		jobs int
	)
	for i := 0; i < sz.reSessions; i++ {
		// New data lands (untimed): one checkpoint epoch, then the file is
		// finalized the way a finished shears run leaves it.
		sink, err := reopenForAppend(st.store)
		if err != nil {
			return nil, err
		}
		n, _, err := writeRounds(sink, all[st.rounds:st.rounds+epochRounds])
		if err == nil {
			err = sink.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("appending rounds from %d: %w", st.rounds, err)
		}
		st.rounds += epochRounds
		st.samples += n

		windows := seededWindows(wrng, camp.cfg.Start, camp.roundTime(st.rounds), sessionWindows)
		js := sessionJobs(st.dir, windows)
		outs, wall, su, err := runSession(ctx, e, js)
		l.record(wall, err)
		u.add(su)
		if err != nil {
			res.notef("session %d failed: %v", i, err)
			continue
		}
		jobs += len(js)
		if i == sz.reSessions-1 {
			// Jobs 1 and 4 are Figure 5 with and without the snapshot.
			res.check(len(outs[1]) > 0 && bytes.Equal(outs[1], outs[4]),
				"last session's snapshot-resumed Figure 5 CSV equals the -snapshot off one (%d bytes)", len(outs[1]))
		}
	}
	disk, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	res.finish(&l, fmt.Sprintf("one analyst session of %d fresh processes after an appended epoch", 7+sessionWindows),
		setupS, float64(jobs), u.total(), disk, st.samples)
	res.notef("ops_per_s counts jobs; store grew %d -> %d epochs, %d samples", sz.reEpochs, st.rounds/epochRounds, st.samples)
	return res, nil
}

// ---------------------------------------------------------------------
// serve_windows

func runServeWindows(ctx context.Context, e *env, seed uint64, sz sizing) (*result, error) {
	camp, err := newCampaign()
	if err != nil {
		return nil, err
	}
	base, err := camp.rounds(ctx, 0, sz.winEpochs*epochRounds)
	if err != nil {
		return nil, err
	}
	end := camp.roundTime(len(base))
	client := newClient(requestTimeout)
	defer client.CloseIdleConnections()

	st, setupS, err := repeatSetup(sz.setups, func() (*served, error) {
		s, err := newServed(e, camp, "windows-", base, true)
		if err != nil {
			return s, err
		}
		if s.srv, err = e.startServer(ctx, s.dir, serve.DefaultRefresh); err != nil {
			return s, err
		}
		warm := seededWindows(newRNG(seed, "windows.warm"), camp.cfg.Start, end, 1)
		_, err = get(ctx, client, s.srv.base+"/api/v1/cdf?"+windowQuery(warm[0]).Encode(), "")
		return s, err
	}, (*served).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	r := newRNG(seed, "windows.requests")
	paths := windowPaths(r, seededWindows(r, camp.cfg.Start, end, sz.winRequests))
	// A seeded 1 % of the bodies is kept for the output check.
	checked := map[int][]byte{}
	for len(checked) < max(len(paths)/100, 1) {
		checked[int(r.intn(int64(len(paths))))] = nil
	}

	res := &result{Correct: true}
	var l latencies
	u0, err := st.srv.usage()
	if err != nil {
		return nil, err
	}
	for i, p := range paths {
		rep, err := timedGet(ctx, client, &l, st.srv.base+p)
		if err != nil {
			res.notef("request %d failed: %v", i, err)
			continue
		}
		if _, ok := checked[i]; ok {
			checked[i] = rep.Body
		}
	}
	u1, err := st.srv.usage()
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}

	// Output check: the cold-scan answer from an engine with no index.
	ref, err := serve.NewEngine(st.store, camp.w.Index, serve.Options{Workers: childProcs})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	if err := ref.Refresh(ctx); err != nil {
		return nil, err
	}
	h := ref.Handler()
	matched := 0
	for i, body := range checked {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[i], nil))
		if body != nil && bytes.Equal(rec.Body.Bytes(), body) {
			matched++
		}
	}
	res.check(matched == len(checked), "%d of %d sampled bodies equal the cold-scan answer of an index-less engine", matched, len(checked))

	res.finish(&l, "one GET of a distinct [since,until) window (3 in 4 /cdf, 1 in 4 /quantile)",
		setupS, float64(len(l.ms)), usage{CPU: u1.CPU - u0.CPU, PeakKB: u1.PeakKB}, disk, st.samples)
	res.notef("ops_per_s counts requests; p99 %.3f ms (ungated, see serve.window_p99_ms); %d epochs, %d samples served",
		percentile(l.sorted(), 0.99), sz.winEpochs, st.samples)
	return res, nil
}

// ---------------------------------------------------------------------
// serve_ingest

// ingestRefresh is the refresher poll interval atlasd runs with here:
// short enough that publish work, not the poll, dominates freshness.
const ingestRefresh = 25 * time.Millisecond

// pollEvery paces the freshness poll so the poller does not compete
// with atlasd for the sandbox's two cores.
const pollEvery = 2 * time.Millisecond

var panelFixed = []string{
	"/api/v1/figures/5", "/api/v1/figures/6", "/api/v1/figures/7",
	"/api/v1/quantile?p=0.5", "/api/v1/quantile?p=0.9", "/api/v1/quantile?p=0.99",
}

// cycle lands one batch of rounds and times ingest -> fresh dashboard:
// the clock starts when Commit returns and stops at the last byte of
// the last panel. Every panel must carry the ETag of the snapshot that
// covers exactly the committed bytes.
func (s *served) cycle(ctx context.Context, client *http.Client, camp *campaign, batch [][]results.Sample, hist *rng, sz sizing) (time.Duration, uint64, error) {
	n, off, err := writeRounds(s.sink, batch)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	s.rounds += len(batch)
	s.samples += n
	head, tail, err := snap.WindowCRCs(s.f, off)
	if err != nil {
		return 0, 0, err
	}
	want := `"` + snap.Fingerprint(off, s.samples, head, tail) + `"`

	for {
		rep, err := get(ctx, client, s.srv.base+"/api/v1/figures/4", s.etag)
		if err != nil {
			return time.Since(t0), 0, err
		}
		if rep.ETag == want {
			break
		}
		if time.Since(t0) > requestTimeout {
			return time.Since(t0), 0, fmt.Errorf("snapshot %s not published within %v (serving %s)", want, requestTimeout, rep.ETag)
		}
		time.Sleep(pollEvery)
	}
	s.etag = want

	newest := camp.roundTime(s.rounds)
	windows := append(trailingWindows(newest, sz.ingTrailing),
		seededWindows(hist, camp.cfg.Start, newest, sz.ingHistoric)...)
	for _, p := range append(append([]string(nil), panelFixed...), windowPaths(hist, windows)...) {
		rep, err := get(ctx, client, s.srv.base+p, "")
		if err != nil {
			return time.Since(t0), 0, err
		}
		if rep.ETag != want {
			return time.Since(t0), 0, fmt.Errorf("panel %s carries ETag %s, want %s", p, rep.ETag, want)
		}
	}
	return time.Since(t0), n, nil
}

func runServeIngest(ctx context.Context, e *env, seed uint64, sz sizing) (*result, error) {
	camp, err := newCampaign()
	if err != nil {
		return nil, err
	}
	// Inputs: the stored prefix, the warm-up batch every set-up lands, and
	// one batch per timed cycle.
	baseRounds := sz.ingEpochs * epochRounds
	all, err := camp.rounds(ctx, 0, baseRounds+(1+sz.ingCycles)*sz.ingRounds)
	if err != nil {
		return nil, err
	}
	batch := func(i int) [][]results.Sample {
		return all[baseRounds+i*sz.ingRounds : baseRounds+(i+1)*sz.ingRounds]
	}
	client := newClient(requestTimeout)
	defer client.CloseIdleConnections()

	st, setupS, err := repeatSetup(sz.setups, func() (*served, error) {
		s, err := newServed(e, camp, "ingest-", all[:baseRounds], false)
		if err != nil {
			return s, err
		}
		if s.f, err = os.Open(s.store.SamplesPath()); err != nil {
			return s, err
		}
		if s.srv, err = e.startServer(ctx, s.dir, ingestRefresh); err != nil {
			return s, err
		}
		// Warm-up op: one whole cycle.
		_, _, err = s.cycle(ctx, client, camp, batch(0), newRNG(seed, "ingest.warm"), sz)
		return s, err
	}, (*served).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	res := &result{Correct: true}
	hist := newRNG(seed, "ingest.historic")
	var (
		l     latencies
		fresh uint64
	)
	u0, err := st.srv.usage()
	if err != nil {
		return nil, err
	}
	for i := 0; i < sz.ingCycles; i++ {
		d, n, err := st.cycle(ctx, client, camp, batch(1+i), hist, sz)
		l.record(d, err)
		fresh += n
		if err != nil {
			res.notef("cycle %d failed: %v", i, err)
		}
	}
	u1, err := st.srv.usage()
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}

	rep, err := get(ctx, client, st.srv.base+"/api/v1/status", "")
	if err != nil {
		return nil, err
	}
	var status struct {
		Serving struct {
			Samples uint64 `json:"samples"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(rep.Body, &status); err != nil {
		return nil, fmt.Errorf("decoding /api/v1/status: %w", err)
	}
	res.check(l.failed == 0, "every panel response of %d cycles carried the new snapshot's ETag", sz.ingCycles)
	res.check(status.Serving.Samples == st.samples, "/api/v1/status serves %d samples, %d were appended", status.Serving.Samples, st.samples)

	panels := 1 + len(panelFixed) + sz.ingTrailing + sz.ingHistoric
	res.finish(&l, fmt.Sprintf("one ingest -> fresh dashboard cycle (%d rounds appended, publish, %d panels)", sz.ingRounds, panels),
		setupS, float64(fresh), usage{CPU: u1.CPU - u0.CPU, PeakKB: u1.PeakKB}, disk, st.samples)
	res.notef("ops_per_s counts samples made fresh; store grew %d -> %d rounds, %d samples", baseRounds, st.rounds, st.samples)
	return res, nil
}
