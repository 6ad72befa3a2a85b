package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/world"
)

func TestTraceByCountry(t *testing.T) {
	lines, err := run(0, "NG", "", 400, 1, "2019-09-01T12:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("want the probe line, the header and one row, got:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.HasPrefix(lines[0], "probe 271: NG, Africa") {
		t.Errorf("probe line = %q", lines[0])
	}
	if want := delay.FormatRows(nil)[0]; lines[1] != want {
		t.Errorf("header = %q, want delay's %q", lines[1], want)
	}
	if !strings.HasPrefix(lines[2], "probe 271 ") {
		t.Errorf("row = %q", lines[2])
	}
}

// TestTraceRowIsTheSample: the printed row is delay's attribution of the
// path's one sample at -at, whose fields are that sample's, bit for bit.
func TestTraceRowIsTheSample(t *testing.T) {
	const atStr = "2019-09-01T12:00:00Z"
	at, err := time.Parse(time.RFC3339, atStr)
	if err != nil {
		t.Fatal(err)
	}
	pr, path := pathOf(t, "DE", "Amazon/eu-central-1")
	b := path.Sample(at)
	if b.Lost {
		t.Fatal("fixture sample is lost")
	}
	a := delay.Attribute(fmt.Sprintf("probe %d", pr.ID), b)
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"total", a.MeanRTTms, b.TotalMs},
		{"propagation", a.PropagationMs, b.PropagationMs},
		{"transit", a.TransitMs, b.TransitMs},
		{"last mile", a.LastMileMs, b.LastMileMs},
		{"bloat", a.BloatMs, b.BloatMs},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s: row holds %v, sample %v", f.name, f.got, f.want)
		}
	}
	lines, err := run(0, "DE", "Amazon/eu-central-1", 400, 1, atStr)
	if err != nil {
		t.Fatal(err)
	}
	if want := delay.FormatRows([]delay.Attribution{a}); !slices.Equal(lines[1:], want) {
		t.Errorf("printed\n%s\nwant\n%s", strings.Join(lines[1:], "\n"), strings.Join(want, "\n"))
	}
}

// TestTraceLostSample: at an instant where the path's sample is lost,
// trace prints the probe line and one lost line.
func TestTraceLostSample(t *testing.T) {
	_, path := pathOf(t, "NG", "")
	at := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	for !path.Sample(at).Lost {
		at = at.Add(time.Hour)
		if at.Year() > 2019 {
			t.Fatal("no lost sample in 2019")
		}
	}
	lines, err := run(0, "NG", "", 400, 1, at.Format(time.RFC3339))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "lost") {
		t.Errorf("at %v: want the probe line and one lost line, got:\n%s", at, strings.Join(lines, "\n"))
	}
}

// pathOf finds the probe and path run picks in a 400-probe, seed-1 world.
func pathOf(t *testing.T, country, region string) (*probe.Probe, *netem.Path) {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 1, Probes: 400})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pickProbe(w, 0, country)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pickRegion(w, pr, region)
	if err != nil {
		t.Fatal(err)
	}
	path, err := w.Platform.Path(pr, r)
	if err != nil {
		t.Fatal(err)
	}
	return pr, path
}

func TestTraceExplicitTargets(t *testing.T) {
	lines, err := run(0, "DE", "Amazon/eu-central-1", 400, 1, "2019-09-01T12:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "Amazon/eu-central-1") {
		t.Error("explicit region not traced")
	}
}

func TestTraceErrors(t *testing.T) {
	cases := []struct {
		name    string
		probeID int
		country string
		region  string
		at      string
	}{
		{"bad time", 0, "DE", "", "not-a-time"},
		{"unknown probe", 999999, "DE", "", "2019-09-01T12:00:00Z"},
		{"unknown country", 0, "ZZ", "", "2019-09-01T12:00:00Z"},
		{"unknown region", 0, "DE", "Nope/x", "2019-09-01T12:00:00Z"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := run(tc.probeID, tc.country, tc.region, 400, 1, tc.at); err == nil {
				t.Error("invalid input accepted")
			}
		})
	}
}

// TestSummarizeBothFormats pins the two shapes of a Chrome trace: the
// container object shears writes summarizes into the stage table, and a
// bare event array, which no writer in this repository produces, is
// refused.
func TestSummarizeBothFormats(t *testing.T) {
	root := obs.NewTrace("shears.run")
	c := root.Child("world.build")
	c.End()
	c = root.Child("campaign")
	c.End()
	root.End()

	var object bytes.Buffer
	if err := root.WriteChromeTrace(&object); err != nil {
		t.Fatal(err)
	}
	var container struct {
		TraceEvents json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(object.Bytes(), &container); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "object.json")
	if err := os.WriteFile(path, object.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, err := summarize(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	table := strings.Join(lines[1:], "\n") // line 0 names the file
	for _, want := range []string{"world.build", "campaign", "stage"} {
		if !strings.Contains(table, want) {
			t.Errorf("summary missing %q:\n%s", want, table)
		}
	}
	if !strings.Contains(lines[0], `root "shears.run"`) {
		t.Errorf("header = %q", lines[0])
	}

	array := filepath.Join(dir, "array.json")
	if err := os.WriteFile(array, container.TraceEvents, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := summarize(array); err == nil || !strings.Contains(err.Error(), "not Chrome trace JSON") {
		t.Errorf("bare event array: err = %v, want it refused", err)
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := summarize(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := summarize(bad); err == nil {
		t.Error("malformed trace accepted")
	}
}
