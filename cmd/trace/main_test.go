package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestTraceByCountry(t *testing.T) {
	lines, err := run(0, "NG", "", 400, 1, "2019-09-01T12:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"probe", "traceroute to", "segments:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("output missing %q:\n%s", want, joined)
		}
	}
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
