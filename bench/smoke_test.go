package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary as the
// launcher of batch children (runChild re-executes os.Executable()).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == launchFlag {
		os.Exit(launchMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

var (
	builtOnce sync.Once
	builtEnv  *env
	builtErr  error
)

// builtTestEnv builds the system under test once for the whole package.
func builtTestEnv(t *testing.T) *env {
	t.Helper()
	builtOnce.Do(func() {
		builtEnv, builtErr = newEnv("..", os.Stderr)
		if builtErr == nil {
			builtErr = builtEnv.buildBinaries(context.Background())
		}
	})
	if builtErr != nil {
		t.Fatal(builtErr)
	}
	return builtEnv
}

// runSmoke runs one workload at smoke scale through run(), exactly as
// the command line would, and returns the decoded result line.
func runSmoke(t *testing.T, workload string, trace int) map[string]json.RawMessage {
	t.Helper()
	builtTestEnv(t)
	var stdout, stderr bytes.Buffer
	o := options{workload: workload, seed: 5, seconds: 1, trace: trace, smoke: true, root: ".."}
	if err := run(context.Background(), o, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last stdout line is not JSON: %v\n%s", err, stdout.String())
	}
	// The readable report names every metric once, with its unit.
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	for _, m := range specs {
		if n := strings.Count(stderr.String(), "   "+m.Name+" "); n != 1 {
			t.Errorf("report prints %s %d times, want once\n%s", m.Name, n, stderr.String())
		}
	}
	return line
}

// checkLine holds a result line to the contract: exactly the four keys,
// exactly the metrics of specs, each with its unit.
func checkLine(t *testing.T, line map[string]json.RawMessage, specs []metricSpec, nonZero bool) {
	t.Helper()
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(line))
	}
	var correct bool
	var attempted, failed int
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	for key, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(line[key], dst); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	if !correct || attempted < 1 || failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", correct, attempted, failed)
	}
	if len(metrics) != len(specs) {
		t.Errorf("%d metrics printed, want %d", len(metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := metrics[m.Name]
		switch {
		case !ok || got.Value == nil:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
		case nonZero && *got.Value <= 0:
			t.Errorf("metric %s = %v: end-to-end metrics are never 0", m.Name, *got.Value)
		case *got.Value < 0:
			t.Errorf("metric %s = %v", m.Name, *got.Value)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
}

// TestSmokeWorkloads runs all four workloads end to end through the
// real binaries at a tiny scale (7-day campaign, 50 requests, 3 cycles).
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	for _, w := range workloadSpecs {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			checkLine(t, runSmoke(t, w.Name, 0), endToEnd, true)
		})
	}
}

// TestSmokeTraced runs the traced composition and checks every
// per-layer metric is printed and no shape hides more than a tenth of
// its time outside a layer span.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced pipeline")
	}
	line := runSmoke(t, "serve_ingest", 1)
	checkLine(t, line, perLayer, false)
	var metrics map[string]struct{ Value float64 }
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if r := metrics["bench.unattributed_ratio"].Value; r >= 0.1 {
		t.Errorf("bench.unattributed_ratio = %.3f: a layer is missing a span", r)
	}
}

func TestUnknownWorkloadAndBadTrace(t *testing.T) {
	for _, o := range []options{
		{workload: "nope", seconds: 1, root: ".."},
		{workload: "paper_run", seconds: 1, trace: 2, root: ".."},
		{workload: "paper_run", seconds: 0, root: ".."},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), o, &out, &out); err == nil {
			t.Errorf("options %+v accepted", o)
		}
		if strings.Contains(out.String(), `"metrics"`) {
			t.Errorf("options %+v printed a result", o)
		}
	}
}

// TestFailedChildIsAnError drives the launcher with a child that exits
// non-zero: the op must come back as an error carrying the child's
// stderr, so a workload counts it as failed.
func TestFailedChildIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	e := builtTestEnv(t)
	_, err := e.runChild(context.Background(), "dataset", "-no-such-flag")
	if err == nil || !strings.Contains(err.Error(), "no-such-flag") {
		t.Fatalf("failing child reported as %v", err)
	}
}
