package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/world"
)

// buildDataset writes a small campaign to disk and returns its
// directory.
func buildDataset(t *testing.T) string {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 1, Probes: 200})
	if err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	dir := filepath.Join(t.TempDir(), "ds")
	_, sink, err := results.Create(dir, cfg.Meta(1, 200, w.Catalog.Len()), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, sink.Write); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestStatsOp(t *testing.T) {
	dir := buildDataset(t)
	lines, err := run(options{data: dir, op: "stats", workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"campaign:", "samples:", "rtt: min=", "storage: format=binary", "bytes/sample"} {
		if !strings.Contains(joined, want) {
			t.Errorf("stats output missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "p50~") {
		t.Errorf("stats reports an approximate quantile:\n%s", joined)
	}
}

func TestContinentsOp(t *testing.T) {
	dir := buildDataset(t)
	lines, err := run(options{data: dir, op: "continents", workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"Europe", "Africa", "within-PL"} {
		if !strings.Contains(joined, want) {
			t.Errorf("continents output missing %q:\n%s", want, joined)
		}
	}
}

func TestFilterOp(t *testing.T) {
	dir := buildDataset(t)
	out := filepath.Join(t.TempDir(), "africa")
	lines, err := run(options{data: dir, op: "filter", continent: "AF", out: out, workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "Africa") {
		t.Errorf("filter output: %v", lines)
	}
	// The filtered dataset opens and holds exactly the source's African
	// samples, in order.
	store, err := results.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.Build(world.Config{Seed: 1, Probes: 200})
	if err != nil {
		t.Fatal(err)
	}
	src, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []results.Sample
	if err := src.ForEach(func(s results.Sample) error {
		if ct, ok := w.Index.Continent(s.ProbeID); ok && ct == geo.Africa {
			want = append(want, s)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.ForEach(func(s results.Sample) error { got = append(got, s); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("filtered dataset holds %d samples, the source has %d African ones", len(got), len(want))
	}
	// Re-filtering into the same directory is refused.
	if _, err := run(options{data: dir, op: "filter", continent: "AF", out: out, workers: 4}); err == nil {
		t.Error("overwrite accepted")
	}
}

func TestRunErrors(t *testing.T) {
	dir := buildDataset(t)
	if _, err := run(options{data: filepath.Join(t.TempDir(), "missing"), op: "stats", workers: 4}); err == nil {
		t.Error("missing dataset accepted")
	}
	if _, err := run(options{data: dir, op: "explode", workers: 4}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := run(options{data: dir, op: "filter", workers: 4}); err == nil {
		t.Error("filter without args accepted")
	}
	if _, err := run(options{data: dir, op: "filter", continent: "XX", out: t.TempDir() + "/x", workers: 4}); err == nil {
		t.Error("bad continent accepted")
	}
	if _, err := run(options{data: dir, op: "stats", workers: 4, since: "yesterday"}); err == nil {
		t.Error("bad -since accepted")
	}
	if _, err := run(options{data: dir, op: "stats", workers: 4, until: "not-a-time"}); err == nil {
		t.Error("bad -until accepted")
	}
	if _, err := run(options{data: dir, op: "continents", workers: 4,
		since: "2019-07-03T00:00:00Z", until: "2019-07-02T00:00:00Z"}); err == nil {
		t.Error("reversed -since/-until accepted")
	}
	if _, err := run(options{data: dir, op: "convert", workers: 4}); err == nil {
		t.Error("convert without -out accepted")
	}
	if _, err := run(options{data: dir, op: "convert", out: t.TempDir() + "/c", to: "parquet"}); err == nil {
		t.Error("unknown convert target accepted")
	}
}

func TestHistOp(t *testing.T) {
	dir := buildDataset(t)
	lines, err := run(options{data: dir, op: "hist", workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 32 { // header + 30 bins + overflow
		t.Fatalf("hist produced %d lines", len(lines))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "#") {
		t.Error("histogram has no bars")
	}
	if !strings.Contains(joined, ">=300ms") {
		t.Error("overflow bucket missing")
	}
}

// TestRegionsOp checks the per-region tally op, with and without a
// window that clips blocks: the output is the same for any worker
// count.
func TestRegionsOp(t *testing.T) {
	dir := buildDataset(t)
	cfg := atlas.TestCampaign()
	since := cfg.Start.Add(7 * 24 * time.Hour).Format(time.RFC3339)
	until := cfg.Start.Add(10 * 24 * time.Hour).Format(time.RFC3339)
	for _, window := range []bool{false, true} {
		o := options{data: dir, op: "regions", workers: 1}
		if window {
			o.since, o.until = since, until
		}
		serial, err := run(o)
		if err != nil {
			t.Fatalf("regions window=%v: %v", window, err)
		}
		if len(serial) < 2 || !strings.Contains(serial[0], "region") || !strings.Contains(serial[0], "mean-rtt") {
			t.Fatalf("regions output malformed:\n%s", strings.Join(serial, "\n"))
		}
		for _, n := range []int{2, 7} {
			o.workers = n
			parallel, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
				t.Errorf("regions window=%v output differs between workers=1 and workers=%d", window, n)
			}
		}
	}
}

// TestRegionsZoneListStore reads a committed `dataset filter` output
// (the Europe samples of a two-day, 200-probe campaign) written when
// block zones still carried a per-region aggregate list and the index
// trailer had no checksum. Its regions table must keep the bytes it
// printed then, whatever the worker count.
func TestRegionsZoneListStore(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"meta.json", "samples.bin"} {
		b, err := os.ReadFile(filepath.Join("testdata", "eu-zone-list", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const want = "5298f255af7ef2b9eb2c1a2fa47544b7fab38a9df8a7fe297c597eed2b7d6575"
	for _, n := range []int{1, 3} {
		lines, err := run(options{data: dir, op: "regions", workers: n})
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n")+"\n"))); got != want {
			t.Errorf("workers=%d: regions sha256 %s, want %s\n%s", n, got, want, strings.Join(lines, "\n"))
		}
	}
}

// TestConvertOp drives both directions of the interchange: exporting a
// store to JSONL and importing it back reproduces samples.bin, and
// importing JSONL and exporting it again reproduces the lines.
func TestConvertOp(t *testing.T) {
	dir := buildDataset(t)
	jl := filepath.Join(t.TempDir(), "jl")
	// Empty -to exports a store.
	lines, err := run(options{data: dir, op: "convert", out: jl})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "binary (") || !strings.Contains(lines[0], "-> jsonl") {
		t.Errorf("convert output: %v", lines)
	}
	read := func(dir, name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	src, jsonl := read(dir, "samples.bin"), read(jl, "samples.jsonl")
	if len(src) > len(jsonl)/2 {
		t.Errorf("binary file is %d bytes, want <= half of %d-byte JSONL", len(src), len(jsonl))
	}
	// The export is not a store, and says what to do about it.
	if _, err := run(options{data: jl, op: "stats", workers: 2}); err == nil || !strings.Contains(err.Error(), "convert") {
		t.Errorf("stats on a JSONL directory: err = %v, want a pointer to convert", err)
	}
	// Empty -to imports anything that is not a store.
	back := filepath.Join(t.TempDir(), "back")
	lines, err = run(options{data: jl, op: "convert", out: back})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "jsonl (") || !strings.Contains(lines[0], "-> binary") {
		t.Errorf("convert output: %v", lines)
	}
	if !bytes.Equal(read(back, "samples.bin"), src) {
		t.Error("binary -> jsonl -> binary does not reproduce samples.bin")
	}
	again := filepath.Join(t.TempDir(), "again")
	if _, err := run(options{data: back, op: "convert", out: again, to: "jsonl"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(again, "samples.jsonl"), jsonl) {
		t.Error("jsonl -> binary -> jsonl round trip is not byte-identical")
	}
	// A direction the source cannot serve is an error, as is overwriting.
	if _, err := run(options{data: jl, op: "convert", out: filepath.Join(t.TempDir(), "x"), to: "jsonl"}); err == nil {
		t.Error("export of a JSONL directory accepted")
	}
	if _, err := run(options{data: dir, op: "convert", out: jl}); err == nil {
		t.Error("overwrite accepted")
	}
	// A malformed line fails the import with its line number.
	bad := append(append([]byte(nil), jsonl...), "{not json\n"...)
	if err := os.WriteFile(filepath.Join(jl, "samples.jsonl"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("line %d", bytes.Count(bad, []byte("\n")))
	if _, err := run(options{data: jl, op: "convert", out: filepath.Join(t.TempDir(), "y")}); err == nil || !strings.Contains(err.Error(), wantLine) {
		t.Errorf("import of a malformed line: err = %v, want %s", err, wantLine)
	}
}

// TestOpsMatchGolden pins every scan op's stdout on the fixture store,
// with and without a time window, to the bytes the ops printed before
// their per-row passes became block kernels (digests of `dataset ...`
// stdout at that commit; the window clips blocks mid-block, so the
// compacted row selection is on the path). The two stats digests were
// re-recorded when the block-index trailer took a CRC-32C: stats prints
// the file size, which grew by 4 bytes.
func TestOpsMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skip("digests pinned on amd64 and 386; other targets may fuse the float arithmetic differently")
	}
	dir := buildDataset(t)
	cfg := atlas.TestCampaign()
	since := cfg.Start.Add(7*24*time.Hour + 95*time.Minute).Format(time.RFC3339)
	until := cfg.Start.Add(10 * 24 * time.Hour).Format(time.RFC3339)
	golden := map[string][2]string{ // op -> {whole store, window}
		"stats": {
			"a6ba5a0a81e9528d77210a9917c3b3cecefc107508b88a3fc46777f3f59e9454",
			"c1542841d9da242299ae3c7b7a774b638673c0f411a491e4e4f6f00efd9562f9",
		},
		"continents": {
			"20766a9dd7ea7130bf40d5b37176998b7a08cf7abc5c0536f7249389de4aadf4",
			"7f12e4e5b4098bd659b7b86cd9cae052d70062552b2c49a1540ec24880a9fae4",
		},
		"regions": {
			"bcc47a46664d3f6acce8ee529f3a129099ef6beaa1c060d8982d4e5978950ed5",
			"50056b3e22db86fa25c7e1f4b90825afe9a6c9739824d23b25d6f167196ba291",
		},
		"hist": {
			"bef754bc5984a90c2010fd4306be9f6e2180b17e4a5fd08df82a0b18fafe6d71",
			"1379efdf4800d60573ed1183625ea1d9d50aef7a14ea1b119fb1ed735216811b",
		},
	}
	for name, want := range golden {
		for i, window := range []bool{false, true} {
			o := options{data: dir, op: name, workers: 3}
			if window {
				o.since, o.until = since, until
			}
			lines, err := run(o)
			if err != nil {
				t.Fatalf("%s window=%v: %v", name, window, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n")+"\n"))); got != want[i] {
				t.Errorf("%s window=%v: stdout sha256 %s, want %s", name, window, got, want[i])
			}
		}
	}
}

// TestOpsWorkerInvariance checks every op emits identical output for any
// scan worker count, including the byte-exact filtered re-export.
func TestOpsWorkerInvariance(t *testing.T) {
	dir := buildDataset(t)
	for _, op := range []string{"stats", "continents", "hist"} {
		serial, err := run(options{data: dir, op: op, workers: 1})
		if err != nil {
			t.Fatalf("%s workers=1: %v", op, err)
		}
		for _, n := range []int{2, 7} {
			parallel, err := run(options{data: dir, op: op, workers: n})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", op, n, err)
			}
			if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
				t.Errorf("%s output differs between workers=1 and workers=%d", op, n)
			}
		}
	}
	filtered := func(workers int) []byte {
		out := filepath.Join(t.TempDir(), "eu")
		if _, err := run(options{data: dir, op: "filter", continent: "EU", out: out, workers: workers}); err != nil {
			t.Fatal(err)
		}
		store, err := results.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(store.SamplesPath())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(filtered(1), filtered(7)) {
		t.Error("filtered dataset differs between workers=1 and workers=7")
	}
}

// TestWindowOp exercises the index-backed window op: per-continent
// sample counts must match a direct fold of the same window, the
// second run must reuse the sidecar built by the first, and the op
// must reject malformed ranges.
func TestWindowOp(t *testing.T) {
	dir := buildDataset(t)
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var samples []results.Sample
	if err := store.ForEach(func(s results.Sample) error {
		samples = append(samples, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	since := samples[len(samples)/4].Time
	until := samples[len(samples)*3/4].Time
	w, err := world.Build(world.Config{Seed: 1, Probes: 200})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, s := range samples {
		if s.Time.Before(since) || !s.Time.Before(until) || s.Lost {
			continue
		}
		if ct, ok := w.Index.Continent(s.ProbeID); ok {
			want[ct.String()]++
		}
	}

	winFlag := since.Format(time.RFC3339) + "," + until.Format(time.RFC3339)
	lines, err := run(options{data: dir, op: "window", window: winFlag})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, wantStr := range []string{"window: [", ") open ", ", extend ", ", query ", "index: ", "rows: ", "block records composed"} {
		if !strings.Contains(joined, wantStr) {
			t.Errorf("window output missing %q:\n%s", wantStr, joined)
		}
	}
	got := make(map[string]int)
	for _, line := range lines {
		for name := range want {
			if strings.HasPrefix(line, name) {
				fields := strings.Fields(line[len(name):])
				if len(fields) < 1 {
					t.Fatalf("unparseable continent line %q", line)
				}
				var n int
				if _, err := fmt.Sscanf(fields[0], "%d", &n); err != nil {
					t.Fatalf("unparseable sample count in %q: %v", line, err)
				}
				got[name] = n
			}
		}
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s: window op reports %d samples, reference fold %d", name, got[name], n)
		}
	}

	// The first run left samples.tix behind; a second run answers from it
	// byte-identically (modulo the timing in the window line).
	if _, err := os.Stat(store.TixPath()); err != nil {
		t.Fatalf("window op left no sidecar: %v", err)
	}
	again, err := run(options{data: dir, op: "window", window: winFlag})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(lines[1:], "\n") != strings.Join(again[1:], "\n") {
		t.Errorf("repeat window op diverged:\n%s\nvs\n%s", joined, strings.Join(again, "\n"))
	}

	if _, err := run(options{data: dir, op: "window", window: "not-a-time,also-not"}); err == nil {
		t.Error("bad -window accepted")
	}
	if _, err := run(options{data: dir, op: "window", window: "backwards"}); err == nil {
		t.Error("-window without comma accepted")
	}
}

// countPass counts the rows any scan worker observes.
type countPass struct{ rows *atomic.Int64 }

func (p countPass) Columns() colf.ColumnSet { return 0 }
func (p countPass) ObserveBlock(blk *colf.Block) error {
	p.rows.Add(int64(blk.Rows()))
	return nil
}
func (p countPass) Merge(scan.Pass) error { return nil }

// TestV1StoreRefused opens a format v1 store — colf's committed
// fixture, built by its v1 encoder — through every entry point that
// reads samples.bin. Each must refuse it with the one error naming
// version 1, before any pass observes a row and without touching the
// file.
func TestV1StoreRefused(t *testing.T) {
	v1, err := os.ReadFile("../../internal/colf/testdata/v1.colf")
	if err != nil {
		t.Fatal(err)
	}
	// The same v1 blocks and index under a version-2 header: the index
	// trailer alone names the version.
	v1Trailer := append([]byte(nil), v1...)
	v1Trailer[4] = 2

	dir := filepath.Join(t.TempDir(), "v1")
	store, sink, err := results.Create(dir, atlas.TestCampaign().Meta(1, 200, 10), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.SamplesPath(), v1, 0o644); err != nil {
		t.Fatal(err)
	}

	var rows atomic.Int64
	cases := []struct {
		name string
		open func() error
	}{
		{"colf.NewReader", func() error {
			_, err := colf.NewReader(bytes.NewReader(v1), int64(len(v1)))
			return err
		}},
		{"colf.NewReader, v1 index trailer", func() error {
			_, err := colf.NewReader(bytes.NewReader(v1Trailer), int64(len(v1Trailer)))
			return err
		}},
		{"colf.Locate", func() error {
			_, _, err := colf.Locate(bytes.NewReader(v1), int64(len(v1)), colf.HeaderSize)
			return err
		}},
		{"results.Store.Resume", func() error {
			_, err := store.Resume(int64(len(v1)))
			return err
		}},
		{"scan.File", func() error {
			_, err := scan.File(context.Background(), scan.Config{
				Path:      store.SamplesPath(),
				NewPasses: func(int) ([]scan.Pass, error) { return []scan.Pass{countPass{&rows}}, nil },
			})
			return err
		}},
		{"dataset stats", func() error {
			lines, err := run(options{data: dir, op: "stats", workers: 2})
			if lines != nil {
				t.Errorf("stats printed %q", lines)
			}
			return err
		}},
	}
	const want = "colf: format version 1 is not readable; only version 2 is"
	for _, c := range cases {
		if err := c.open(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, want)
		}
	}
	if n := rows.Load(); n != 0 {
		t.Errorf("%d rows observed from a refused store", n)
	}
	if got, err := os.ReadFile(store.SamplesPath()); err != nil || !bytes.Equal(got, v1) {
		t.Errorf("refusals changed samples.bin (err %v)", err)
	}
}

// TestIndexByteFlips damages a sealed store's file-level block index one
// byte at a time. Every flip must leave regions, a windowed stats and
// the window op with the undamaged store's answer or an error: a wrong
// answer with no error fails.
func TestIndexByteFlips(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three ops per index byte")
	}
	w, err := world.Build(world.Config{Seed: 1, Probes: 200})
	if err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	cfg.End = cfg.Start.Add(3 * 24 * time.Hour)
	dir := filepath.Join(t.TempDir(), "ds")
	store, sink, err := results.Create(dir, cfg.Meta(1, 200, w.Catalog.Len()), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	// Seal a block every nine hours, as checkpoints do, so the window
	// below skips, clips and covers blocks.
	next := cfg.Start.Add(9 * time.Hour)
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, func(s results.Sample) error {
		if !s.Time.Before(next) {
			next = next.Add(9 * time.Hour)
			if err := sink.Flush(); err != nil {
				return err
			}
		}
		return sink.Write(s)
	}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	since := cfg.Start.Add(20 * time.Hour).Format(time.RFC3339)
	until := cfg.Start.Add(50 * time.Hour).Format(time.RFC3339)
	ops := []options{
		{data: dir, op: "regions", workers: 2},
		{data: dir, op: "stats", workers: 2, since: since, until: until},
		{data: dir, op: "window", window: since + "," + until},
	}
	answer := func(o options) (string, error) {
		lines, err := run(o)
		if o.op == "window" && len(lines) > 0 {
			lines = lines[1:] // the first line holds timings
		}
		return strings.Join(lines, "\n"), err
	}
	want := make([]string, len(ops))
	for i, o := range ops {
		if want[i], err = answer(o); err != nil {
			t.Fatalf("%s on the undamaged store: %v", o.op, err)
		}
	}
	clean, err := os.ReadFile(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	tixClean, err := os.ReadFile(store.TixPath())
	if err != nil {
		t.Fatal(err)
	}
	r, err := colf.NewReader(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	blocks := r.Blocks()
	if len(blocks) < 6 {
		t.Fatalf("%d blocks; the window needs more to skip, clip and cover", len(blocks))
	}
	idxStart := blocks[len(blocks)-1].Off + blocks[len(blocks)-1].Len

	// One flip per byte, the flipped bit cycling through the byte's
	// eight, so every field of the index loses each bit somewhere.
	wrong := 0
	for off := idxStart; off < int64(len(clean)); off++ {
		damaged := append([]byte(nil), clean...)
		damaged[off] ^= 1 << (off % 8)
		if err := os.WriteFile(store.SamplesPath(), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		for i, o := range ops {
			if err := os.WriteFile(store.TixPath(), tixClean, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := answer(o); err == nil && got != want[i] {
				if wrong++; wrong <= 5 {
					t.Errorf("index byte %d: %s answered wrongly without an error:\n%s\nwant\n%s",
						off-idxStart, o.op, got, want[i])
				}
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d wrong answers over %d flipped index bytes", wrong, int64(len(clean))-idxStart)
	}
}
