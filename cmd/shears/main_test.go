package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/cmdrun"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/world"
)

func TestRunBuildsDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := run(options{out: dir, probes: 200, seed: 1, days: 2, quiet: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); !os.IsNotExist(err) {
		t.Error("completed run left a checkpoint behind")
	}
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta := store.Meta()
	if meta.Probes != 200 || meta.Regions != 101 {
		t.Errorf("meta = %+v", meta)
	}
	n := 0
	if err := store.ForEach(func(results.Sample) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	// 2 days x 8 rounds x ~190 public probes x 2 targets.
	if n < 1000 {
		t.Errorf("dataset has only %d samples", n)
	}
}

func TestRunBuildsTemporalIndex(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := run(options{out: dir, probes: 200, seed: 1, days: 2, quiet: true}); err != nil {
		t.Fatal(err)
	}
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(store.TixPath())
	if err != nil {
		t.Fatalf("run built no temporal index: %v", err)
	}
	if fi.Size() == 0 {
		t.Error("temporal index is empty")
	}
}

func TestRunWithFigures(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	// 4 days is enough for every figure including the weekly Fig 7 bins.
	if err := run(options{out: dir, probes: 250, seed: 1, days: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(options{out: t.TempDir(), probes: 0, seed: 1, days: 1, quiet: true}); err == nil {
		t.Error("zero probes accepted")
	}
}

// TestRunRejectsNegativeFlags: a negative -days or -checkpoint-every is
// refused by name before anything is written, not read as its default.
func TestRunRejectsNegativeFlags(t *testing.T) {
	for _, tc := range []struct {
		o    options
		want string
	}{
		{options{days: -5, checkpointEvery: engine.DefaultCheckpointEvery}, "-days -5"},
		{options{days: 1, checkpointEvery: -1}, "-checkpoint-every -1"},
	} {
		dir := filepath.Join(t.TempDir(), "ds")
		tc.o.out, tc.o.probes, tc.o.seed, tc.o.quiet, tc.o.logDst = dir, 200, 1, true, io.Discard
		if err := run(tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want one naming %s", err, tc.want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: the refused run created %s", tc.want, dir)
		}
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	figDir := filepath.Join(t.TempDir(), "figs")
	if err := run(options{out: dir, probes: 250, seed: 1, days: 7, quiet: true, figDir: figDir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"figure1.csv", "figure1.svg", "figure4.csv", "figure5.csv",
		"figure5.svg", "figure6.csv", "figure6.svg", "figure7.csv",
		"figure7.svg", "figure8.csv",
	} {
		info, err := os.Stat(filepath.Join(figDir, name))
		if err != nil {
			t.Errorf("%s missing: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestRunGoldenDigests pins every byte one small seeded run leaves
// behind — the store, both sidecars and the figure CSVs — to digests
// recorded when the JSONL store format and the row-scan tier were
// removed: the one remaining write path and the one remaining scan path
// must keep producing exactly what the paths they replaced produced
// (`shears -probes 250 -seed 1 -days 7 -workers 3 -checkpoint-every 0
// -quiet -figdir DIR` at the commit before wrote these bytes). A
// deliberate format change updates the digest it moves and says so:
// samples.snap moved with each suite state version since (v3, v4, v5),
// and samples.tix twice: when both took the shared record format of
// internal/snap (snapshot +8 bytes, index -2), and when the index became
// one record per block (pass set continent-cdf-v2); samples.bin once,
// when its block-index trailer took a CRC-32C (+4 bytes); nothing else
// has.
// stdout — every figure table, the §4.1 provider table and the §4.3
// attribution — was recorded later, from `shears` without -quiet at the
// commit before provider summaries came from selection and §4.3 ran
// beside the figure scan, and is asserted at one and three workers.
// figure1.csv and the four SVGs were recorded last, at the commit before
// every figure's forms came from one table in internal/figures.
func TestRunGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skip("digests pinned on amd64 and 386; other targets may fuse the float arithmetic differently")
	}
	for _, workers := range []int{1, 3} {
		dir := filepath.Join(t.TempDir(), "ds")
		figDir := filepath.Join(t.TempDir(), "figs")
		var stdout bytes.Buffer
		if err := run(options{out: dir, probes: 250, seed: 1, days: 7, figDir: figDir, workers: workers,
			stdout: &stdout, logDst: io.Discard}); err != nil {
			t.Fatal(err)
		}
		golden := map[string]string{
			filepath.Join(dir, "samples.bin"):    "3b8ac61da9c5d98120a04f9ced30f5c7dcf553a29ca2e7f43715617a417b7354",
			filepath.Join(dir, "samples.snap"):   "bdb075e5aeab3fe71332d9d43b38dc69cf857a1823b75b84104cccc34c27c781",
			filepath.Join(dir, "samples.tix"):    "91a047d2325b714d8fc09b53bf0b60a3873497bc68e910bd85c25aad2c71d9e2",
			filepath.Join(figDir, "figure4.csv"): "0769f523f93c6e187269a61d2466261d7310ce283b62dac630c3582c8868a8fa",
			filepath.Join(figDir, "figure5.csv"): "058670c0b8a579c903ad842bd4301cf3432fc8b99e8cfb06bf13c29cd5720f54",
			filepath.Join(figDir, "figure6.csv"): "ae36b4f26a621f72645d571516bce1976cce2d5c73438bb895433d4868cc45d7",
			filepath.Join(figDir, "figure7.csv"): "81d6fa79721692c8df9f09c562fdaee6499c4be9c11dcf08b39fe0ea36f78e1c",
			filepath.Join(figDir, "figure8.csv"): "57d5d0139c6c0b9b63f4917bec6f20b1716fb47c70b44ac2752f1c8b1db4adad",
			filepath.Join(figDir, "figure1.csv"): "23ecd1d8fb6f53c8794ec0ea8f65f4c5a525a353ae91de1097032987f50177e6",
			filepath.Join(figDir, "figure1.svg"): "bf2139185c1fe4f514e62f5c486353e9b96ad2dec80c86622164e409608e18f5",
			filepath.Join(figDir, "figure5.svg"): "5cf1dec7f8ef010fa2f888188a09d70b3c0241f747b42ce8c2b1c349ea6291d3",
			filepath.Join(figDir, "figure6.svg"): "5a229df3818f7eb387589dde62f674af03b0b9c5d7d771a9ab658cfb501bc5dc",
			filepath.Join(figDir, "figure7.svg"): "4ce379ea957d7f8145acd7b70fc8a92cfe909aa6a0cd75b0c67ba3e29e868c43",
		}
		for path, want := range golden {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
				continue
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
				t.Errorf("workers=%d %s: sha256 %s, want %s", workers, filepath.Base(path), got, want)
			}
		}
		const wantStdout = "b0509c4411d0d34b3c21286770ca983ad0d09cfb5bfc9a6218367dbc13071c61"
		if got := fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes())); got != wantStdout {
			t.Errorf("workers=%d stdout: sha256 %s, want %s", workers, got, wantStdout)
		}
	}
}

// TestRunWritesTrace is the campaign-scale telemetry smoke test: a small
// run with -trace must emit a trace whose reconstructed span tree covers
// world build -> campaign (with per-round fan-out) -> figure generation.
func TestRunWritesTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	// A tiny progress interval exercises the reporter goroutine too.
	// Two workers and a checkpoint every 8 rounds, so every campaign
	// stage span appears whatever GOMAXPROCS the test runs under.
	if err := run(options{out: dir, probes: 250, seed: 1, days: 4, workers: 2, checkpointEvery: 8,
		tracePath: tracePath, progressEvery: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	root, err := obs.ParseTrace(raw)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if root.Name != "shears.run" || root.DurationMs <= 0 {
		t.Fatalf("bad root span: %+v", root)
	}
	byName := map[string]obs.SpanDump{}
	for _, c := range root.Children {
		byName[c.Name] = c
	}
	for _, want := range []string{"world.build", "campaign", "results.flush", "figures", "tix.build", "delay.attribution"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("root lacks %q child; has %d children", want, len(root.Children))
		}
	}
	// Rounds overlap on the parallel engine; the trace's span links keep
	// each under the span that opened it, so count them anywhere under the
	// campaign. Beside them sit the engine's stage spans: one
	// engine.generate per worker, one results.write, and a results.commit
	// per checkpoint (rounds 8, 16 and 24 of 32), each taking time.
	var rounds int
	var samples float64
	stages := map[string]int{}
	var walk func(d obs.SpanDump)
	walk = func(d obs.SpanDump) {
		for _, c := range d.Children {
			switch c.Name {
			case "round":
				rounds++
				samples += c.Attrs["samples"].(float64)
			case "engine.generate", "results.write", "results.commit":
				stages[c.Name]++
				if c.DurationMs <= 0 {
					t.Errorf("%s span has duration %v ms", c.Name, c.DurationMs)
				}
			default:
				t.Errorf("unexpected span %q under campaign", c.Name)
			}
			walk(c)
		}
	}
	walk(byName["campaign"])
	if rounds != 32 { // 4 days x 8 rounds
		t.Errorf("campaign has %d round spans, want 32", rounds)
	}
	if samples == 0 {
		t.Error("round spans carry no samples")
	}
	if want := map[string]int{"engine.generate": 2, "results.write": 1, "results.commit": 3}; !reflect.DeepEqual(stages, want) {
		t.Errorf("campaign stage spans %v, want %v", stages, want)
	}
	figs := byName["figures"]
	if len(figs.Children) == 0 {
		t.Error("figures span has no children")
	}
	var sawScan bool
	for _, c := range figs.Children {
		if c.Name == "scan" {
			sawScan = true
			if c.Attrs["samples"].(float64) == 0 {
				t.Error("scan span carries no samples")
			}
			continue
		}
		switch c.Name {
		case "snap.load", "snap.merge", "suite.report":
		case "snapshot.write":
			var parts []string
			for _, g := range c.Children {
				parts = append(parts, g.Name)
			}
			if got := strings.Join(parts, ","); got != "snap.encode,snap.fsync" {
				t.Errorf("snapshot.write splits into %q, want snap.encode,snap.fsync", got)
			}
		default:
			if !strings.HasPrefix(c.Name, "figure:") {
				t.Errorf("unexpected figures child %q", c.Name)
			}
		}
	}
	if !sawScan {
		t.Error("figures span lacks the fused dataset scan child")
	}
	// The overlapped index build and §4.3 attribution are drawn beside the
	// figures stage, not inside its lane.
	var events struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	lanes := map[string]int{}
	for _, e := range events.TraceEvents {
		lanes[e.Name] = e.Tid
	}
	for _, name := range []string{"tix.build", "delay.attribution"} {
		if lanes[name] == 0 || lanes[name] == lanes["figures"] || lanes[name] == lanes["scan"] {
			t.Errorf("%s on lane %d, figures on %d, scan on %d; want %[1]s on a lane of its own",
				name, lanes[name], lanes["figures"], lanes["scan"])
		}
	}
}

// TestRunServesStatusEndpoints polls the -status-addr endpoints while
// the campaign executes: /metrics, /debug/events, and /api/v1/progress
// must all serve real data mid-run. The onRound hook blocks the engine's
// merger after the second merged round, so the polls below observe a
// campaign that is genuinely still running.
func TestRunServesStatusEndpoints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	ready := make(chan string, 1)
	midRun := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(options{
			out: dir, probes: 250, seed: 1, days: 2, quiet: true, workers: 2,
			logDst:    io.Discard,
			telemetry: cmdrun.Flags{StatusAddr: "127.0.0.1:0"},
			statusReady: func(addr string) {
				select {
				case ready <- addr:
				default:
				}
			},
			onRound: func(round int, _ uint64) {
				if round == 1 {
					close(midRun)
					<-release
				}
			},
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("run finished before the status server came up: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("status server never came up")
	}
	select {
	case <-midRun:
	case err := <-errCh:
		t.Fatalf("run finished before reaching round 2: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("campaign never reached round 2")
	}

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return b
	}

	var p struct {
		RunID    string `json:"run_id"`
		Campaign struct {
			RoundsDone  float64 `json:"rounds_done"`
			RoundsTotal float64 `json:"rounds_total"`
			Samples     uint64  `json:"samples"`
		} `json:"campaign"`
	}
	if b := get("/api/v1/progress"); true {
		if err := json.Unmarshal(b, &p); err != nil {
			t.Fatalf("progress is not JSON: %v\n%s", err, b)
		}
	}
	if p.RunID == "" {
		t.Error("progress lacks a run ID")
	}
	if p.Campaign.RoundsTotal != 16 { // 2 days x 8 rounds
		t.Errorf("rounds_total = %v, want 16", p.Campaign.RoundsTotal)
	}
	if p.Campaign.RoundsDone < 2 || p.Campaign.RoundsDone >= p.Campaign.RoundsTotal {
		t.Errorf("mid-run rounds_done = %v, want in [2, 16)", p.Campaign.RoundsDone)
	}
	if p.Campaign.Samples == 0 {
		t.Error("mid-run progress reports zero samples")
	}

	metrics := string(get("/metrics"))
	for _, want := range []string{"atlas_campaign_rounds_total 16", "engine_rounds_merged", "atlas_campaign_samples_total{"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("mid-run /metrics lacks %q", want)
		}
	}
	// shears registers only what it updates: no API server, no live
	// network.
	for _, absent := range []string{"atlas_http_", "netsim_"} {
		if strings.Contains(metrics, absent) {
			t.Errorf("mid-run /metrics lists %s* series, which shears never updates", absent)
		}
	}

	var d struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Level     string `json:"level"`
			Component string `json:"component"`
			Msg       string `json:"msg"`
		} `json:"events"`
	}
	if b := get("/debug/events"); true {
		if err := json.Unmarshal(b, &d); err != nil {
			t.Fatalf("events dump is not JSON: %v\n%s", err, b)
		}
	}
	if d.Total == 0 || len(d.Events) == 0 {
		t.Fatalf("mid-run flight recorder is empty: %+v", d)
	}
	var sawWorld bool
	for _, e := range d.Events {
		if e.Msg == "world built" && e.Component == "shears" {
			sawWorld = true
		}
	}
	if !sawWorld {
		t.Errorf("flight recorder lacks the world-built event: %+v", d.Events)
	}

	unblock() // let the merger finish the campaign
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not finish")
	}
}

// TestCampaignETAOnResume: a campaign resumed at round 8 of 16 has run
// one round, in a second, once the gauge reads 9, so seven rounds take
// about seven seconds more. Dividing by all nine rounds the gauge counts
// would promise under one. The progress body and the progress log line
// both take their ETA from campaignETA.
func TestCampaignETAOnResume(t *testing.T) {
	now := time.Now()
	eta := campaignETA{started: now.Add(-time.Second), from: 8, total: 16}
	for _, tc := range []struct {
		done float64
		want time.Duration
		ok   bool
	}{
		{0, 0, false}, // the campaign has not seeded the gauge yet
		{8, 0, false}, // seeded, no round run
		{9, 7 * time.Second, true},
		{12, time.Second, true},
		{16, 0, true},
	} {
		if got, ok := eta.left(tc.done, now); ok != tc.ok || got != tc.want {
			t.Errorf("%v rounds done: ETA %v, %v; want %v, %v", tc.done, got, ok, tc.want, tc.ok)
		}
	}

	reg := obs.NewRegistry()
	m := atlas.NewCampaignMetrics(reg)
	m.RoundsTotal.Set(16)
	m.RoundsDone.Set(9)
	p := map[string]any{}
	campaignProgress(m, engine.NewMetrics(reg), eta)(p)
	b, err := json.Marshal(p["campaign"])
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		ETASeconds float64 `json:"eta_seconds"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if c.ETASeconds < 7 || c.ETASeconds > 8 {
		t.Errorf("progress eta_seconds = %v one round after resuming at 8 of 16, want about 7", c.ETASeconds)
	}
}

// TestRunWritesManifest checks the run.json evidence bundle: identity,
// flags-independent defaults, per-stage durations, and throughput.
func TestRunWritesManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := run(options{out: dir, probes: 200, seed: 1, days: 2, quiet: true, logDst: io.Discard}); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadRunManifest(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Binary != "shears" || m.RunID == "" || m.GoVersion == "" {
		t.Errorf("manifest identity: %+v", m)
	}
	if m.Samples == 0 || m.SamplesPerSec <= 0 {
		t.Errorf("manifest throughput: samples=%d samples/s=%v", m.Samples, m.SamplesPerSec)
	}
	if m.WorldFingerprint == "" || m.Workers < 1 {
		t.Errorf("manifest workload: fingerprint=%q workers=%d", m.WorldFingerprint, m.Workers)
	}
	if runtime.GOOS == "linux" && m.PeakRSSBytes == 0 {
		t.Error("manifest lacks peak_rss_bytes on Linux")
	}
	if m.AllocBytes == 0 {
		t.Error("manifest lacks alloc_bytes")
	}
	if m.DurationMs <= 0 || m.End.Before(m.Start) {
		t.Errorf("manifest window: start=%v end=%v duration=%vms", m.Start, m.End, m.DurationMs)
	}
	stages := map[string]bool{}
	for _, s := range m.Stages {
		if s.DurationMs < 0 {
			t.Errorf("stage %q has negative duration", s.Name)
		}
		stages[s.Name] = true
	}
	for _, want := range []string{"world.build", "campaign", "results.flush"} {
		if !stages[want] {
			t.Errorf("manifest lacks stage %q; has %v", want, m.Stages)
		}
	}
}

// TestRunWritesChromeTrace validates the exported Chrome trace-event
// JSON: the -trace file — the only one written — must parse, contain
// only complete (ph "X") events with µs timestamps, and round-trip
// through ParseTrace.
func TestRunWritesChromeTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := run(options{out: dir, probes: 200, seed: 1, days: 2, quiet: true, tracePath: tracePath, logDst: io.Discard}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if twins, _ := filepath.Glob(filepath.Join(filepath.Dir(tracePath), "*")); len(twins) != 1 {
		t.Errorf("-trace wrote %v, want the one file", twins)
	}
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	names := map[string]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", e.Name, e.Ph)
		}
		if e.Pid < 1 || e.Tid < 1 || e.Ts < 0 || e.Dur < 0 {
			t.Errorf("event %q schema violation: pid=%d tid=%d ts=%v dur=%v", e.Name, e.Pid, e.Tid, e.Ts, e.Dur)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"shears.run", "world.build", "campaign", "round"} {
		if !names[want] {
			t.Errorf("chrome trace lacks %q span", want)
		}
	}
	// The same file must reconstruct into a span tree via ParseTrace.
	d, err := obs.ParseTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "shears.run" {
		t.Errorf("reconstructed root = %q, want shears.run", d.Name)
	}
}

// TestRunWorkerCountInvariance is the end-to-end determinism check: the
// same flags with different -workers produce byte-identical datasets.
func TestRunWorkerCountInvariance(t *testing.T) {
	read := func(workers int) []byte {
		dir := filepath.Join(t.TempDir(), "ds")
		if err := run(options{out: dir, probes: 200, seed: 3, days: 2, quiet: true, workers: workers}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "samples.bin"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := read(1)
	if parallel := read(7); !bytes.Equal(serial, parallel) {
		t.Error("workers=7 dataset differs from workers=1")
	}
}

func TestRunResumeErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	// Nothing to resume: no checkpoint exists.
	err := run(options{out: dir, probes: 200, seed: 1, days: 1, quiet: true, resume: true})
	if !errors.Is(err, engine.ErrNoCheckpoint) {
		t.Fatalf("resume without checkpoint: err = %v, want ErrNoCheckpoint", err)
	}

	// A checkpoint from different campaign parameters must be refused.
	if err := run(options{out: dir, probes: 200, seed: 1, days: 1, quiet: true}); err != nil {
		t.Fatal(err)
	}
	cp := engine.Checkpoint{
		Version: 1, Fingerprint: "deadbeefdeadbeef",
		Round: 3, Samples: 10, SinkOffset: 100,
	}
	if err := cp.Save(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatal(err)
	}
	err = run(options{out: dir, probes: 200, seed: 9, days: 1, quiet: true, resume: true})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("fingerprint mismatch not refused: %v", err)
	}

	// A checkpoint that is plain JSON (the old format), empty or torn is
	// refused before the store is opened: samples.bin keeps its bytes.
	ckPath := filepath.Join(dir, "checkpoint.json")
	samples := filepath.Join(dir, "samples.bin")
	before, err := os.ReadFile(samples)
	if err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"plain json": plain, "empty": nil, "torn": written[:len(written)/2]} {
		if err := os.WriteFile(ckPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(options{out: dir, probes: 200, seed: 1, days: 1, quiet: true, resume: true})
		if err == nil || !strings.Contains(err.Error(), ckPath) {
			t.Errorf("%s checkpoint: err = %v, want one naming %s", name, err, ckPath)
		}
		if after, err := os.ReadFile(samples); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s checkpoint: a refused resume touched samples.bin (err %v)", name, err)
		}
	}
}

// TestRunWritesSnapshotOnce pins the snapshot's place in a run: the
// campaign's checkpoints (each seals a block) never touch it, the
// post-campaign scan writes it exactly once covering every block, and
// re-analysis of the directory — what cmd/figures -fig 4|5 does — is
// then a pure hit.
func TestRunWritesSnapshotOnce(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 1, Probes: 250})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ds")
	reg := obs.NewRegistry()
	if err := run(options{out: dir, probes: 250, seed: 1, days: 4, checkpointEvery: 8,
		quiet: true, figDir: filepath.Join(t.TempDir(), "figs"), logDst: io.Discard, reg: reg}); err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if err := reg.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "snap_writes_total 1\n") {
		t.Error("run did not write exactly one snapshot")
	}
	m, err := obs.ReadRunManifest(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Snapshot; c == nil || c.PrefixBlocks != 0 || c.BlocksTotal < 4 || c.BlocksRead != c.BlocksTotal {
		t.Fatalf("manifest snapshot coverage = %+v, want a cold scan of every block", c)
	}

	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sm := snap.NewMetrics(obs.NewRegistry())
	_, st, err := core.ScanStoreSnap(context.Background(), store, w.Index, atlas.TestCampaign().Start, 7*24*time.Hour, 2, nil,
		core.SnapshotOptions{Path: store.SnapshotPath(), Metrics: sm, Passes: core.PassProximity})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Hits.Value() != 1 || sm.Writes.Value() != 0 || st.BlocksRead != 0 || st.PrefixBlocks != m.Snapshot.BlocksTotal {
		t.Errorf("re-analysis: hits=%d writes=%d blocks_read=%d prefix_blocks=%d, want a pure hit over %d blocks",
			sm.Hits.Value(), sm.Writes.Value(), st.BlocksRead, st.PrefixBlocks, m.Snapshot.BlocksTotal)
	}
}

// TestRunResumeRebuildsSnapshot kills a campaign after its first
// checkpoint: the interrupted directory holds no snapshot, and the
// -resume run ends with the same dataset, snapshot and figure bytes as
// an uninterrupted run.
func TestRunResumeRebuildsSnapshot(t *testing.T) {
	base := options{probes: 250, seed: 1, days: 6, checkpointEvery: 8, quiet: true, logDst: io.Discard}
	ref := base
	ref.out, ref.figDir, ref.workers = filepath.Join(t.TempDir(), "ds"), filepath.Join(t.TempDir(), "figs"), 2
	if err := run(ref); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := base
	cut.out, cut.figDir, cut.workers = filepath.Join(t.TempDir(), "ds"), filepath.Join(t.TempDir(), "figs"), 2
	cut.ctx = ctx
	cut.onRound = func(round int, _ uint64) {
		if round == 9 { // past the round-7 checkpoint
			cancel()
		}
	}
	if err := run(cut); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(cut.out, checkpointFile)); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(cut.out, "samples.snap")); !os.IsNotExist(err) {
		t.Fatalf("interrupted run left a snapshot behind (err=%v)", err)
	}

	cut.ctx, cut.onRound, cut.resume, cut.workers = nil, nil, true, 3
	if err := run(cut); err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) {
		t.Helper()
		want, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the uninterrupted run's", filepath.Base(b))
		}
	}
	for _, name := range []string{"samples.bin", "samples.snap", "samples.tix"} {
		same(filepath.Join(ref.out, name), filepath.Join(cut.out, name))
	}
	for _, name := range []string{"figure4.csv", "figure5.csv", "figure6.csv", "figure7.csv", "figure8.csv"} {
		same(filepath.Join(ref.figDir, name), filepath.Join(cut.figDir, name))
	}
}
