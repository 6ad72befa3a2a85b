package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// testTrace builds a deterministic span tree: a root with two sequential
// stages, the second fanning out into two overlapping children.
func testTrace() *Span {
	now := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	root := newTrace("run", clock)
	root.SetAttr("seed", 1)

	build := root.Child("world.build")
	now = now.Add(100 * time.Millisecond)
	build.End()

	camp := root.Child("campaign")
	w0 := camp.Child("worker")
	w1 := camp.Child("worker")
	now = now.Add(200 * time.Millisecond)
	w0.End()
	now = now.Add(50 * time.Millisecond)
	w1.End()
	camp.End()
	root.End()
	return root
}

// decodeChrome parses exported trace JSON and returns the events.
func decodeChrome(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var ct struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("chrome trace does not parse as JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	return ct.TraceEvents
}

func TestWriteChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := testTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events := decodeChrome(t, buf.Bytes())
	if len(events) != 5 {
		t.Fatalf("exported %d events, want 5 (run, build, campaign, 2 workers)", len(events))
	}
	byName := map[string]chromeEvent{}
	for _, e := range events {
		// Schema invariants every event must satisfy.
		if e.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", e.Name, e.Ph)
		}
		if e.Pid != 1 || e.Tid < 1 {
			t.Errorf("event %q pid/tid = %d/%d", e.Name, e.Pid, e.Tid)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Errorf("event %q ts/dur negative: %v/%v", e.Name, e.Ts, e.Dur)
		}
		byName[e.Name] = e
	}
	if byName["run"].Args["seed"] != float64(1) {
		t.Errorf("span attrs not carried as args: %v", byName["run"].Args)
	}
	if byName["world.build"].Dur != 100_000 {
		t.Errorf("world.build dur = %vµs, want 100000", byName["world.build"].Dur)
	}
	// The two concurrent workers overlap and must land on distinct lanes.
	var workerTids []int
	for _, e := range events {
		if e.Name == "worker" {
			workerTids = append(workerTids, e.Tid)
		}
	}
	if len(workerTids) != 2 || workerTids[0] == workerTids[1] {
		t.Errorf("overlapping workers share a lane: tids %v", workerTids)
	}
}

func TestChromeTraceNilSpan(t *testing.T) {
	var s *Span
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil span exported %q", buf.String())
	}
}

func TestStageTotals(t *testing.T) {
	totals := StageTotals(testTrace().Dump())
	byName := map[string]StageTotal{}
	for _, st := range totals {
		byName[st.Name] = st
	}
	if byName["worker"].Count != 2 {
		t.Errorf("worker count = %d, want 2", byName["worker"].Count)
	}
	if got := byName["worker"].Total; got != 450*time.Millisecond {
		t.Errorf("worker total = %v, want 450ms (200+250)", got)
	}
	// Two 200/250ms workers aggregate to 450ms — more than the 350ms
	// wall clock; the fan-out stage legitimately tops the table.
	if totals[0].Name != "worker" {
		t.Errorf("longest stage = %q, want worker", totals[0].Name)
	}
	table := FormatStageTable(totals, 350*time.Millisecond)
	if len(table) != len(totals)+1 {
		t.Fatalf("table has %d lines, want %d", len(table), len(totals)+1)
	}
	if !strings.Contains(table[0], "stage") || !strings.Contains(table[0], "share") {
		t.Errorf("missing header: %q", table[0])
	}
	if !strings.Contains(strings.Join(table, "\n"), "100.0%") {
		t.Errorf("root share != 100%%:\n%s", strings.Join(table, "\n"))
	}
}

// TestParseTraceLegacyJSON pins what happens to the nested span-JSON
// shears wrote before it settled on Chrome trace events: it is valid
// JSON but no longer a trace, and the error says what is missing.
func TestParseTraceLegacyJSON(t *testing.T) {
	legacy := `{"name":"run","duration_ms":3,"children":[{"name":"scan","duration_ms":1}]}`
	if _, err := ParseTrace([]byte(legacy)); err == nil || !strings.Contains(err.Error(), "no complete") {
		t.Errorf("ParseTrace(span JSON) err = %v, want it refused as holding no complete events", err)
	}
}

func TestParseTraceChromeRoundTrip(t *testing.T) {
	root := testTrace()
	var buf bytes.Buffer
	if err := root.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "run" {
		t.Fatalf("chrome round-trip root = %q, want run", d.Name)
	}
	// Stage totals must agree between the in-memory dump and the
	// reconstructed chrome tree (both aggregate the same durations).
	want := StageTotals(root.Dump())
	got := StageTotals(d)
	if len(got) != len(want) {
		t.Fatalf("stage count %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Count != want[i].Count {
			t.Errorf("stage[%d] = %+v, want %+v", i, got[i], want[i])
		}
		if diff := got[i].Total - want[i].Total; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("stage %q total %v != %v", got[i].Name, got[i].Total, want[i].Total)
		}
	}
}

// TestParseTraceOverlappingSiblings pins the span links: two stages of
// one parent run side by side, the shorter inside the longer's interval
// and covering the longer's own child, so containment alone would hang
// both under the wrong span. The exported span numbers keep the tree.
func TestParseTraceOverlappingSiblings(t *testing.T) {
	now := time.Unix(0, 0)
	root := newTrace("run", func() time.Time { return now })
	figures := root.Child("figures")
	now = now.Add(time.Millisecond)
	index := root.Child("index")
	now = now.Add(time.Millisecond)
	scan := figures.Child("scan")
	now = now.Add(time.Millisecond)
	scan.End()
	now = now.Add(time.Millisecond)
	index.End()
	now = now.Add(time.Millisecond)
	figures.End()
	root.End()
	var buf bytes.Buffer
	if err := root.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Children) != 2 || d.Children[0].Name != "figures" || d.Children[1].Name != "index" {
		t.Fatalf("root children = %+v, want figures and index", d.Children)
	}
	if fc := d.Children[0].Children; len(fc) != 1 || fc[0].Name != "scan" || len(d.Children[1].Children) != 0 {
		t.Errorf("scan not under figures alone: figures %+v, index %+v", fc, d.Children[1].Children)
	}
	lanes := map[string]int{}
	for _, e := range decodeChrome(t, buf.Bytes()) {
		lanes[e.Name] = e.Tid
	}
	if lanes["index"] == lanes["figures"] || lanes["scan"] != lanes["figures"] {
		t.Errorf("lanes %v: want index beside figures, scan inside it", lanes)
	}
}

// TestParseTraceUnlinked: a trace whose events lack the span links
// WriteChromeTrace writes is refused, and the error names the first
// such event.
func TestParseTraceUnlinked(t *testing.T) {
	events := `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":100,"pid":1,"tid":1,"span":1},
	                            {"name":"b","ph":"X","ts":10,"dur":50,"pid":1,"tid":1}]}`
	if _, err := ParseTrace([]byte(events)); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("ParseTrace(unlinked) err = %v, want one naming event \"b\"", err)
	}
}

func TestParseTraceGarbage(t *testing.T) {
	for _, in := range []string{"", "   ", "not json", "{}", "[]"} {
		if _, err := ParseTrace([]byte(in)); err == nil {
			t.Errorf("ParseTrace(%q) accepted garbage", in)
		}
	}
}
