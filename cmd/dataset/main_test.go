package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/results"
	"repro/internal/world"
)

// buildDataset writes a small campaign to disk in the given storage
// format and returns its directory.
func buildDataset(t *testing.T, format results.Format) string {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 1, Probes: 200})
	if err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	dir := filepath.Join(t.TempDir(), "ds")
	_, sink, err := results.Create(dir, cfg.Meta(1, 200, w.Catalog.Len()), format)
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
	dir := buildDataset(t, results.FormatBinary)
	lines, err := run(options{data: dir, op: "stats", workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"campaign:", "samples:", "rtt:", "p50~", "storage: format=binary", "bytes/sample"} {
		if !strings.Contains(joined, want) {
			t.Errorf("stats output missing %q:\n%s", want, joined)
		}
	}
}

func TestContinentsOp(t *testing.T) {
	dir := buildDataset(t, results.FormatBinary)
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
	dir := buildDataset(t, results.FormatBinary)
	out := filepath.Join(t.TempDir(), "africa")
	lines, err := run(options{data: dir, op: "filter", continent: "AF", out: out, workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "Africa") {
		t.Errorf("filter output: %v", lines)
	}
	// The filtered dataset opens, keeps the source's binary format, and
	// contains only African probes.
	store, err := results.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	if store.Format() != results.FormatBinary {
		t.Errorf("filtered store format = %v, want binary", store.Format())
	}
	n := 0
	if err := store.ForEach(func(results.Sample) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("filtered dataset empty")
	}
	// Re-filtering into the same directory is refused.
	if _, err := run(options{data: dir, op: "filter", continent: "AF", out: out, workers: 4}); err == nil {
		t.Error("overwrite accepted")
	}
}

func TestRunErrors(t *testing.T) {
	dir := buildDataset(t, results.FormatBinary)
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
	if _, err := run(options{data: dir, op: "convert", workers: 4}); err == nil {
		t.Error("convert without -out accepted")
	}
	if _, err := run(options{data: dir, op: "convert", out: t.TempDir() + "/c", to: "parquet"}); err == nil {
		t.Error("unknown convert target accepted")
	}
}

func TestHistOp(t *testing.T) {
	dir := buildDataset(t, results.FormatBinary)
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

// TestStatsFastOp checks the aggregate-only stats variant: it must
// agree with the sketch-backed op on every shared figure (min, max,
// mean, the campaign and sample tallies) while omitting the quantiles,
// and produce identical output on both storage formats and for any
// worker count — even though on binary stores it resolves blocks from
// zone pre-aggregates without decoding a row.
func TestStatsFastOp(t *testing.T) {
	jdir := buildDataset(t, results.FormatJSONL)
	bdir := filepath.Join(t.TempDir(), "bin")
	if _, err := run(options{data: jdir, op: "convert", out: bdir}); err != nil {
		t.Fatal(err)
	}
	fast, err := run(options{data: bdir, op: "stats", fast: true, workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(fast, "\n")
	if strings.Contains(joined, "p50~") || strings.Contains(joined, "p95~") {
		t.Errorf("-fast stats reports quantiles:\n%s", joined)
	}
	for _, want := range []string{"campaign:", "samples:", "rtt: min="} {
		if !strings.Contains(joined, want) {
			t.Errorf("-fast stats missing %q:\n%s", want, joined)
		}
	}

	// Shared figures agree with the sketch-backed op.
	slow, err := run(options{data: bdir, op: "stats", workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tokens := func(lines []string) map[string]string {
		m := map[string]string{}
		for _, l := range lines {
			if strings.HasPrefix(l, "campaign:") || strings.HasPrefix(l, "samples:") {
				m[strings.SplitN(l, ":", 2)[0]] = l
			}
			if strings.HasPrefix(l, "rtt:") {
				for _, f := range strings.Fields(l) {
					for _, key := range []string{"min=", "max=", "mean="} {
						if strings.HasPrefix(f, key) {
							m[key] = f
						}
					}
				}
			}
		}
		return m
	}
	ft, st := tokens(fast), tokens(slow)
	for _, key := range []string{"campaign", "samples", "min=", "max=", "mean="} {
		if ft[key] != st[key] {
			t.Errorf("fast/slow stats disagree on %s: %q vs %q", key, ft[key], st[key])
		}
	}

	// Format equivalence and worker invariance.
	jfast, err := run(options{data: jdir, op: "stats", fast: true, workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	strip := func(lines []string) string {
		var kept []string
		for _, l := range lines {
			if !strings.HasPrefix(l, "storage:") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(jfast) != strip(fast) {
		t.Errorf("-fast stats differ across formats:\njsonl:\n%s\nbinary:\n%s", strip(jfast), strip(fast))
	}
	for _, n := range []int{1, 7} {
		again, err := run(options{data: bdir, op: "stats", fast: true, workers: n})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(again, "\n") != joined {
			t.Errorf("-fast stats differ between workers=4 and workers=%d", n)
		}
	}
}

// TestRegionsOp checks the per-region tally op: identical output on
// both storage formats (zone aggregate list vs per-row fold), with and
// without a time window, and for any worker count.
func TestRegionsOp(t *testing.T) {
	jdir := buildDataset(t, results.FormatJSONL)
	bdir := filepath.Join(t.TempDir(), "bin")
	if _, err := run(options{data: jdir, op: "convert", out: bdir}); err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	since := cfg.Start.Add(7 * 24 * time.Hour).Format(time.RFC3339)
	until := cfg.Start.Add(10 * 24 * time.Hour).Format(time.RFC3339)
	for _, window := range []bool{false, true} {
		o := options{data: jdir, op: "regions", workers: 3}
		if window {
			o.since, o.until = since, until
		}
		want, err := run(o)
		if err != nil {
			t.Fatalf("regions jsonl window=%v: %v", window, err)
		}
		if len(want) < 2 || !strings.Contains(want[0], "region") || !strings.Contains(want[0], "mean-rtt") {
			t.Fatalf("regions output malformed:\n%s", strings.Join(want, "\n"))
		}
		o.data = bdir
		got, err := run(o)
		if err != nil {
			t.Fatalf("regions binary window=%v: %v", window, err)
		}
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Errorf("regions window=%v: jsonl and binary outputs differ", window)
		}
	}
	serial, err := run(options{data: bdir, op: "regions", workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 7} {
		parallel, err := run(options{data: bdir, op: "regions", workers: n})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
			t.Errorf("regions output differs between workers=1 and workers=%d", n)
		}
	}
}

// TestConvertOp round-trips a JSONL dataset through the binary format
// and back, checking the final JSONL bytes are identical to the source
// and that the binary encoding is at most half the size.
func TestConvertOp(t *testing.T) {
	dir := buildDataset(t, results.FormatJSONL)
	bin := filepath.Join(t.TempDir(), "bin")
	// Empty -to flips the source format: jsonl -> binary.
	lines, err := run(options{data: dir, op: "convert", out: bin})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "-> binary") {
		t.Errorf("convert output: %v", lines)
	}
	src, err := os.ReadFile(filepath.Join(dir, "samples.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	bi, err := os.Stat(filepath.Join(bin, "samples.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if bi.Size() > int64(len(src))/2 {
		t.Errorf("binary file is %d bytes, want <= half of %d-byte JSONL", bi.Size(), len(src))
	}
	// And back: binary -> jsonl must reproduce the source byte for byte.
	back := filepath.Join(t.TempDir(), "back")
	if _, err := run(options{data: bin, op: "convert", out: back, to: "jsonl"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(back, "samples.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Error("jsonl -> binary -> jsonl round trip is not byte-identical")
	}
	// Converting onto an existing directory is refused.
	if _, err := run(options{data: dir, op: "convert", out: bin}); err == nil {
		t.Error("overwrite accepted")
	}
}

// TestOpsFormatEquivalence pins every scan op's stdout to be identical
// on a JSONL store and its binary conversion, with and without a time
// window.
func TestOpsFormatEquivalence(t *testing.T) {
	jdir := buildDataset(t, results.FormatJSONL)
	bdir := filepath.Join(t.TempDir(), "bin")
	if _, err := run(options{data: jdir, op: "convert", out: bdir}); err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	since := cfg.Start.Add(7 * 24 * time.Hour).Format(time.RFC3339)
	until := cfg.Start.Add(10 * 24 * time.Hour).Format(time.RFC3339)
	for _, op := range []string{"continents", "hist"} {
		for _, window := range []bool{false, true} {
			o := options{data: jdir, op: op, workers: 3}
			if window {
				o.since, o.until = since, until
			}
			want, err := run(o)
			if err != nil {
				t.Fatalf("%s jsonl window=%v: %v", op, window, err)
			}
			o.data = bdir
			got, err := run(o)
			if err != nil {
				t.Fatalf("%s binary window=%v: %v", op, window, err)
			}
			if strings.Join(want, "\n") != strings.Join(got, "\n") {
				t.Errorf("%s window=%v: jsonl and binary outputs differ", op, window)
			}
		}
	}
	// stats reports the storage line, so compare the remaining lines.
	strip := func(lines []string) string {
		var kept []string
		for _, l := range lines {
			if !strings.HasPrefix(l, "storage:") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	want, err := run(options{data: jdir, op: "stats", workers: 3, since: since, until: until})
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(options{data: bdir, op: "stats", workers: 3, since: since, until: until})
	if err != nil {
		t.Fatal(err)
	}
	if strip(want) != strip(got) {
		t.Errorf("windowed stats differ:\njsonl:\n%s\nbinary:\n%s", strip(want), strip(got))
	}
}

// TestOpsWorkerInvariance checks every op emits identical output for any
// scan worker count on both storage formats, including the byte-exact
// filtered re-export.
func TestOpsWorkerInvariance(t *testing.T) {
	for _, format := range []results.Format{results.FormatJSONL, results.FormatBinary} {
		dir := buildDataset(t, format)
		for _, op := range []string{"stats", "continents", "hist"} {
			serial, err := run(options{data: dir, op: op, workers: 1})
			if err != nil {
				t.Fatalf("%s %s workers=1: %v", format, op, err)
			}
			for _, n := range []int{2, 7} {
				parallel, err := run(options{data: dir, op: op, workers: n})
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", format, op, n, err)
				}
				if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
					t.Errorf("%s %s output differs between workers=1 and workers=%d", format, op, n)
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
			t.Errorf("%s filtered dataset differs between workers=1 and workers=7", format)
		}
	}
}

// TestWindowOp exercises the index-backed window op: per-continent
// sample counts must match a direct fold of the same window, the
// second run must reuse the sidecar built by the first, and the op
// must reject JSONL stores and malformed ranges.
func TestWindowOp(t *testing.T) {
	dir := buildDataset(t, results.FormatBinary)
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
	for _, wantStr := range []string{"window: [", ") open ", ", extend ", ", query ", "index: ", "rows: ", "nodes composed"} {
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
	jsonl := buildDataset(t, results.FormatJSONL)
	if _, err := run(options{data: jsonl, op: "window", window: winFlag}); err == nil {
		t.Error("window op accepted a JSONL store")
	}
}
