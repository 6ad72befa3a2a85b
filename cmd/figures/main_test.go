package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/cmdrun"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/world"
)

func TestRenderDatasetIndependentFigures(t *testing.T) {
	for _, fig := range []string{"1", "2", "3a", "3b"} {
		lines, err := render(options{fig: fig, probes: 200, seed: 1, snapMode: "on"}, nil)
		if err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if len(lines) == 0 {
			t.Errorf("fig %s produced no output", fig)
		}
	}
}

// TestFigure1IgnoresSeed: Figure 1 is the paper's zeitgeist whatever the
// world seed, in every form, as shears prints it.
func TestFigure1IgnoresSeed(t *testing.T) {
	for _, csv := range []bool{false, true} {
		var outs [2]bytes.Buffer
		for i, seed := range []uint64{1, 2} {
			if err := run(options{fig: "1", csv: csv, probes: 200, seed: seed, snapMode: "on",
				stdout: &outs[i], logDst: io.Discard}); err != nil {
				t.Fatalf("csv=%v seed %d: %v", csv, seed, err)
			}
		}
		if outs[0].Len() == 0 || !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
			t.Errorf("csv=%v: -seed 1 and -seed 2 print different Figure 1s:\n%s\nvs\n%s", csv, &outs[0], &outs[1])
		}
	}
}

func TestRenderUnknownFigure(t *testing.T) {
	_, err := render(options{fig: "42", probes: 200, seed: 1, snapMode: "on"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Errorf("unknown figure: %v", err)
	}
}

// buildDataset writes a tiny binary-format campaign dataset for the
// stored-dataset tests and returns its directory.
func buildDataset(t *testing.T, seed uint64, probes int) (string, *world.World) {
	t.Helper()
	w, err := world.Build(world.Config{Seed: seed, Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	dir := t.TempDir()
	_, sink, err := results.Create(dir, cfg.Meta(seed, w.Probes.Len(), w.Catalog.Len()), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, sink.Write); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, w
}

func TestRenderFromStoredDataset(t *testing.T) {
	dir, _ := buildDataset(t, 2, 200)
	opts := func(fig string, workers int, snapMode string) options {
		return options{fig: fig, data: dir, probes: 200, seed: 2, workers: workers, snapMode: snapMode}
	}
	for _, fig := range []string{"4", "5", "6", "7", "8"} {
		lines, err := render(opts(fig, 4, "on"), nil)
		if err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if len(lines) == 0 {
			t.Errorf("fig %s produced no output", fig)
		}
	}
	// The parallel scan is worker-count invariant.
	serial, err := render(opts("6", 1, "on"), nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := render(opts("6", 7, "on"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
		t.Error("figure 6 output differs between workers=1 and workers=7")
	}
	// The renders above left a snapshot behind; a forced cold scan must
	// produce the identical figure.
	cold, err := render(opts("6", 3, "off"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(cold, "\n") != strings.Join(parallel, "\n") {
		t.Error("figure 6 output differs between snapshot and cold scans")
	}
	// The modes are on and off; the old "auto" spelling is refused.
	if _, err := render(opts("6", 3, "auto"), nil); err == nil || !strings.Contains(err.Error(), "want on or off") {
		t.Errorf("-snapshot auto: err = %v", err)
	}
	// Missing dataset directory surfaces an error.
	if _, err := render(options{fig: "4", data: dir + "/nope", probes: 200, seed: 2, workers: 4, snapMode: "on"}, nil); err == nil {
		t.Error("missing dataset accepted")
	}
}

// startRun starts a figures run whose log goes to w: the telemetry run
// hands render. Nothing finishes it, so it writes no manifest.
func startRun(t *testing.T, w io.Writer) *cmdrun.Run {
	t.Helper()
	r, err := cmdrun.Start(cmdrun.Config{Binary: "figures", LogDst: w})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDatasetWorldFromMeta pins where a stored dataset's world comes
// from. Left at their defaults, -probes and -seed are the dataset's own
// (meta.json), so the figure and the snapshot are those of a run that
// spelled them out; given on the command line and different, they win,
// with a warning — and samples.snap, which is bound to the dataset's
// world, is neither read nor overwritten.
func TestDatasetWorldFromMeta(t *testing.T) {
	dir, _ := buildDataset(t, 2, 200)
	explicit := options{fig: "5", data: dir, probes: 200, seed: 2, probesSet: true, seedSet: true, workers: 2, snapMode: "on"}
	want, err := render(explicit, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile(filepath.Join(dir, "samples.snap"))
	if err != nil {
		t.Fatal(err)
	}

	// The flag defaults describe a different world (400 probes, seed 1).
	var log bytes.Buffer
	r := startRun(t, &log)
	sm := r.SnapMetrics()
	defaults := options{fig: "5", data: dir, probes: 400, seed: 1, workers: 2, snapMode: "on"}
	got, err := render(defaults, r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Error("figure under the flag defaults differs from the dataset's world")
	}
	if sm.Hits.Value() != 1 || sm.Invalidations.Value() != 0 || sm.Writes.Value() != 0 {
		t.Errorf("defaults run: hit=%d invalid=%d write=%d, want a pure snapshot hit", sm.Hits.Value(), sm.Invalidations.Value(), sm.Writes.Value())
	}
	if strings.Contains(log.String(), "level=WARN") {
		t.Errorf("defaults run warned:\n%s", log.String())
	}

	log.Reset()
	r = startRun(t, &log)
	sm = r.SnapMetrics()
	other := explicit
	other.probes = 250
	got, err = render(other, r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		t.Error("an explicit -probes 250 analysed the dataset's 200-probe world")
	}
	if !strings.Contains(log.String(), "level=WARN") || !strings.Contains(log.String(), "dataset_probes=200") {
		t.Errorf("mismatched world not warned about:\n%s", log.String())
	}
	if n := sm.Hits.Value() + sm.Misses.Value() + sm.Invalidations.Value() + sm.Writes.Value(); n != 0 {
		t.Errorf("mismatched world touched the snapshot machinery %d times", n)
	}
	if after, err := os.ReadFile(filepath.Join(dir, "samples.snap")); err != nil || !bytes.Equal(after, snapshot) {
		t.Errorf("mismatched world changed samples.snap (err %v)", err)
	}
}

func TestRenderSynthesizes(t *testing.T) {
	lines, err := render(options{fig: "4", probes: 200, seed: 1, snapMode: "on"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lines[0], "countries:") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestRenderCSV(t *testing.T) {
	for _, fig := range []string{"1", "4", "7"} {
		lines, err := render(options{fig: fig, probes: 200, seed: 1, snapMode: "on", csv: true}, nil)
		if err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if len(lines) < 2 || !strings.Contains(lines[0], ",") {
			t.Errorf("fig %s CSV output malformed: %v", fig, lines[:1])
		}
	}
	if _, err := render(options{fig: "2", probes: 200, seed: 1, snapMode: "on", csv: true}, nil); err == nil {
		t.Error("figure without CSV form accepted")
	}
}

// TestRunWritesManifest checks the run.figures.json evidence bundle a
// stored-dataset render leaves behind: identity, per-stage durations,
// scan throughput, and snapshot coverage.
func TestRunWritesManifest(t *testing.T) {
	dir, _ := buildDataset(t, 2, 200)
	err := run(options{
		fig: "5", data: dir, probes: 200, seed: 2, workers: 4, snapMode: "on",
		stdout: io.Discard, logDst: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadRunManifest(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if m.Binary != "figures" || m.RunID == "" || m.GoVersion == "" {
		t.Errorf("manifest identity: %+v", m)
	}
	if m.Samples == 0 || m.SamplesPerSec <= 0 {
		t.Errorf("manifest throughput: samples=%d samples/s=%v", m.Samples, m.SamplesPerSec)
	}
	if m.Workers != 4 {
		t.Errorf("manifest workers = %d, want 4", m.Workers)
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
	if m.Snapshot == nil || m.Snapshot.BlocksTotal == 0 {
		t.Errorf("manifest lacks snapshot coverage: %+v", m.Snapshot)
	}
	stages := map[string]bool{}
	for _, s := range m.Stages {
		if s.DurationMs < 0 {
			t.Errorf("stage %q has negative duration", s.Name)
		}
		stages[s.Name] = true
	}
	for _, want := range []string{"world.build", "scan", "figure:5", "snap.load", "snapshot.write", "suite.report"} {
		if !stages[want] {
			t.Errorf("manifest lacks stage %q; has %v", want, m.Stages)
		}
	}

	// The run above left a snapshot; the next one resumes from it and
	// says what the figure was computed from: the covered samples the
	// scan did not decode, and the two snapshot passes it folded.
	total := m.Samples
	if err := run(options{
		fig: "5", data: dir, probes: 200, seed: 2, workers: 4, snapMode: "on",
		stdout: io.Discard, logDst: io.Discard,
	}); err != nil {
		t.Fatal(err)
	}
	if m, err = obs.ReadRunManifest(filepath.Join(dir, manifestFile)); err != nil {
		t.Fatal(err)
	}
	if m.Samples != 0 || m.Snapshot == nil || m.Snapshot.PrefixSamples != total || m.Snapshot.Passes != "proximity,min-rtt" {
		t.Errorf("resumed manifest: samples=%d snapshot=%+v, want 0 scanned over %d covered by passes proximity,min-rtt", m.Samples, m.Snapshot, total)
	}
	stages = map[string]bool{}
	for _, s := range m.Stages {
		stages[s.Name] = true
	}
	if !stages["snap.merge"] || stages["snapshot.write"] {
		t.Errorf("resumed manifest stages %v: want a snap.merge and no snapshot.write", m.Stages)
	}
}

// TestUnwritableSnapshotStillPrints puts a directory where samples.snap
// goes, so the snapshot can be neither read nor replaced. The snapshot
// is an accelerator: the scan succeeded, so the figure prints — the
// bytes of a -snapshot off run — the run exits clean, and the failure
// is a warning and a snap_write_errors_total count, not the outcome.
func TestUnwritableSnapshotStillPrints(t *testing.T) {
	dir, _ := buildDataset(t, 2, 200)
	var want bytes.Buffer
	if err := run(options{fig: "4", data: dir, csv: true, workers: 2, snapMode: "off", stdout: &want, logDst: io.Discard}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "samples.snap", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	var got, log bytes.Buffer
	if err := run(options{fig: "4", data: dir, csv: true, workers: 2, snapMode: "on", stdout: &got, logDst: &log, telemetry: cmdrun.Flags{LogLevel: "info"}}); err != nil {
		t.Fatalf("a snapshot that cannot be written failed the run: %v", err)
	}
	if got.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("figure printed beside an unwritable snapshot differs from -snapshot off (%d vs %d bytes)", got.Len(), want.Len())
	}
	if !strings.Contains(log.String(), "level=WARN") || !strings.Contains(log.String(), "snapshot not written") {
		t.Errorf("no warning about the failed write:\n%s", log.String())
	}

	r := startRun(t, io.Discard)
	sm := r.SnapMetrics()
	if _, err := render(options{fig: "5", data: dir, workers: 2, snapMode: "on"}, r); err != nil {
		t.Fatal(err)
	}
	if sm.WriteErrors.Value() != 1 || sm.Writes.Value() != 0 {
		t.Errorf("snap_write_errors_total = %d, snap_writes_total = %d; want 1 and 0", sm.WriteErrors.Value(), sm.Writes.Value())
	}
}

// TestRunServesStatusEndpoints polls the -status-addr endpoints while a
// render is in flight: the beforeRender hook parks the run so /metrics,
// /debug/events, and /api/v1/progress are demonstrably served mid-run.
func TestRunServesStatusEndpoints(t *testing.T) {
	dir, _ := buildDataset(t, 2, 200)
	ready := make(chan string, 1)
	parked := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(options{
			fig: "6", data: dir, probes: 200, seed: 2, workers: 2, snapMode: "on",
			stdout: io.Discard, logDst: io.Discard,
			telemetry: cmdrun.Flags{StatusAddr: "127.0.0.1:0"},
			statusReady: func(addr string) {
				select {
				case ready <- addr:
				default:
				}
			},
			beforeRender: func() { close(parked); <-release },
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
	// Poll only once the run is parked in the hook: it logs the
	// rendering event between announcing the address and parking.
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached the render hook")
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
		RunID  string `json:"run_id"`
		Figure string `json:"figure"`
	}
	if err := json.Unmarshal(get("/api/v1/progress"), &p); err != nil {
		t.Fatalf("progress is not JSON: %v", err)
	}
	if p.RunID == "" || p.Figure != "6" {
		t.Errorf("progress = %+v", p)
	}

	metrics := string(get("/metrics"))
	for _, want := range []string{"scan_total", "scan_samples_total", "snap_hits_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("mid-run /metrics lacks %q", want)
		}
	}

	var d struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Component string `json:"component"`
			Msg       string `json:"msg"`
		} `json:"events"`
	}
	if err := json.Unmarshal(get("/debug/events"), &d); err != nil {
		t.Fatalf("events dump is not JSON: %v", err)
	}
	var sawRender bool
	for _, e := range d.Events {
		if e.Msg == "rendering figure" && e.Component == "figures" {
			sawRender = true
		}
	}
	if d.Total == 0 || !sawRender {
		t.Errorf("flight recorder lacks the rendering event: %+v", d)
	}

	unblock()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not finish")
	}
}

// TestWorldFiguresFromMeta extends TestDatasetWorldFromMeta's rule to
// the figures that need a world but no samples: with -data, 3a and 3b
// describe the dataset's world (meta.json), not the flag defaults —
// unless -probes/-seed are given, in which case the run warns.
func TestWorldFiguresFromMeta(t *testing.T) {
	dir, _ := buildDataset(t, 2, 200)
	for _, fig := range []string{"3a", "3b"} {
		want, err := render(options{fig: fig, probes: 200, seed: 2, snapMode: "on"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		got, err := render(options{fig: fig, data: dir, probes: 400, seed: 1, snapMode: "on"}, startRun(t, &log))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("fig %s -data under the flag defaults is not the dataset's world:\n%s", fig, strings.Join(got, "\n"))
		}
		if !strings.Contains(log.String(), "seed=2") || strings.Contains(log.String(), "level=WARN") {
			t.Errorf("fig %s: want the dataset's world built without a warning:\n%s", fig, log.String())
		}
	}
	defaults, err := render(options{fig: "3b", probes: 400, seed: 1, snapMode: "on"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	explicit, err := render(options{fig: "3b", data: dir, probes: 400, seed: 1, probesSet: true, seedSet: true, snapMode: "on"}, startRun(t, &log))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(explicit, "\n") != strings.Join(defaults, "\n") {
		t.Error("an explicit -probes 400 -seed 1 did not win over the dataset's world")
	}
	if !strings.Contains(log.String(), "level=WARN") || !strings.Contains(log.String(), "dataset_probes=200") {
		t.Errorf("mismatched world not warned about:\n%s", log.String())
	}
}

// TestBadFlagsFailBeforeAnyWork pins the validation order: an unknown
// figure, a figure with no CSV form and a bad -snapshot are refused
// with their usual messages before a world is built or a campaign
// synthesized, with or without -data.
func TestBadFlagsFailBeforeAnyWork(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    options
		want string
	}{
		{"unknown figure", options{fig: "9", snapMode: "on"}, `unknown figure "9"`},
		{"no figure", options{snapMode: "on"}, `unknown figure ""`},
		{"unknown figure on a store", options{fig: "9", data: "/nonexistent", snapMode: "on"}, `unknown figure "9"`},
		{"figure 2 as CSV", options{fig: "2", csv: true, snapMode: "on"}, `figure "2" has no CSV form`},
		{"figure 3a as CSV", options{fig: "3a", csv: true, snapMode: "on"}, `figure "3a" has no CSV form`},
		{"unknown figure as CSV", options{fig: "9", csv: true, snapMode: "on"}, `figure "9" has no CSV form`},
		{"bad -snapshot without -data", options{fig: "4", snapMode: "bogus"}, `invalid -snapshot "bogus" (want on or off)`},
		{"bad -snapshot on a store", options{fig: "4", data: "/nonexistent", snapMode: "bogus"}, `invalid -snapshot "bogus" (want on or off)`},
		{"bad -snapshot on a world figure", options{fig: "3b", snapMode: "auto"}, `invalid -snapshot "auto" (want on or off)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.o.probes, tc.o.seed = 400, 1
			var log bytes.Buffer
			r := startRun(t, &log)
			_, err := render(tc.o, r)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %s", err, tc.want)
			}
			if strings.Contains(log.String(), "world built") {
				t.Errorf("a world was built first:\n%s", log.String())
			}
			if kids := r.Span().Dump().Children; len(kids) != 0 {
				t.Errorf("work preceded the refusal: first span %q", kids[0].Name)
			}
		})
	}
}

// TestFailedRenderWritesMemProfile: the heap profile is written on every
// exit after setup, a render that fails included.
func TestFailedRenderWritesMemProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "m.prof")
	err := run(options{fig: "99", snapMode: "on", logDst: io.Discard, telemetry: cmdrun.Flags{MemProfile: prof}})
	if err == nil || !strings.Contains(err.Error(), `unknown figure "99"`) {
		t.Fatalf("err = %v, want the unknown-figure error", err)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("failed render left no heap profile (stat: %v)", err)
	}
}

// TestSyntheticCSVGoldenDigests pins `figures -fig N -csv` without
// -data — the synthesized 400-probe, seed-1 test campaign — to the
// stdout digests recorded when these figures were still row folds over
// results.Memory. The in-memory block fold must print the same bytes.
func TestSyntheticCSVGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes five campaigns")
	}
	for fig, want := range map[string]string{
		"4": "2f4492fcecb06ae37592e388b61495fe9a816f69ae3017085dfdc6d870aab381",
		"5": "3d92a56293163a0558f4c1300291945a65b2d72af5a555d4ef151fa67fbee2f3",
		"6": "0d166ce5d6e2cfc601cff6ad7f4f744dd312b38b00c55710a96849644c625358",
		"7": "9aaba4e7594718c7e6b21c9214ba4d43a6001fa0508dfd388152433f021663cc",
		"8": "57d5d0139c6c0b9b63f4917bec6f20b1716fb47c70b44ac2752f1c8b1db4adad",
	} {
		var out bytes.Buffer
		if err := run(options{fig: fig, csv: true, probes: 400, seed: 1, snapMode: "on", stdout: &out, logDst: io.Discard}); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("figures -fig %s -csv digest = %s, want %s", fig, got, want)
		}
	}
}

// TestSnapshotOffWorksOnePass pins what -snapshot off is: the same
// ScanStoreSnap call without a snapshot path. The cold scan decodes the
// whole store but feeds only the pass the figure reads, and
// samples.snap is neither created nor, when one exists, read or
// touched.
func TestSnapshotOffWorksOnePass(t *testing.T) {
	dir, _ := buildDataset(t, 2, 200)
	snapPath := filepath.Join(dir, "samples.snap")
	cold := func(fig string) *obs.RunManifest {
		t.Helper()
		if err := run(options{
			fig: fig, data: dir, probes: 200, seed: 2, workers: 2, snapMode: "off",
			stdout: io.Discard, logDst: io.Discard,
		}); err != nil {
			t.Fatal(err)
		}
		m, err := obs.ReadRunManifest(filepath.Join(dir, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		if m.Samples == 0 || m.Snapshot == nil || m.Snapshot.BlocksRead != m.Snapshot.BlocksTotal || m.Snapshot.PrefixSamples != 0 {
			t.Errorf("fig %s: not a cold scan of the whole store: samples=%d snapshot=%+v", fig, m.Samples, m.Snapshot)
		}
		if want := passesOf(fig).String(); m.Snapshot == nil || m.Snapshot.Passes != want {
			t.Errorf("fig %s: scan worked passes %+v, want %s", fig, m.Snapshot, want)
		}
		for _, s := range m.Stages {
			if strings.HasPrefix(s.Name, "snap") {
				t.Errorf("fig %s: stage %q in a -snapshot off run", fig, s.Name)
			}
		}
		return m
	}
	for _, fig := range []string{"4", "5", "6", "7", "8"} {
		cold(fig)
		if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
			t.Fatalf("fig %s: -snapshot off left %s behind (stat: %v)", fig, snapPath, err)
		}
	}

	if err := run(options{
		fig: "5", data: dir, probes: 200, seed: 2, workers: 2, snapMode: "on",
		stdout: io.Discard, logDst: io.Discard,
	}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	stamp, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	cold("6")
	after, err := os.ReadFile(snapPath)
	if err != nil || !bytes.Equal(after, before) {
		t.Errorf("-snapshot off changed samples.snap (err %v)", err)
	}
	if now, err := os.Stat(snapPath); err != nil || !now.ModTime().Equal(stamp.ModTime()) {
		t.Errorf("-snapshot off touched samples.snap (err %v)", err)
	}
}
