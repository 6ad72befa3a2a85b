package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// This file is the trace exporter: it turns a span tree into the Chrome
// trace-event JSON format, which chrome://tracing and Perfetto load
// directly. Each span becomes one "complete" (ph "X") event with its
// attributes carried as args; concurrent spans are spread across lanes
// (tids) so overlapping children of a fan-out render side by side
// instead of corrupting the per-lane nesting stack.

// chromeEvent is one trace-event record. Timestamps and durations are
// microseconds, per the format. Span and Parent are this exporter's own
// fields (viewers ignore keys they do not know): the span's 1-based
// number and its parent's, so ParseTrace rebuilds the exact tree even
// where overlapping stages make containment ambiguous.
type chromeEvent struct {
	Name   string         `json:"name"`
	Ph     string         `json:"ph"`
	Ts     float64        `json:"ts"`
	Dur    float64        `json:"dur"`
	Pid    int            `json:"pid"`
	Tid    int            `json:"tid"`
	Span   int            `json:"span,omitempty"`
	Parent int            `json:"parent,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container form of the format.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit,omitempty"`
}

// WriteChromeTrace exports the span tree in Chrome trace-event JSON.
// Open spans are exported with their duration so far, matching Dump.
func (s *Span) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		return nil
	}
	return WriteChromeTraceDump(w, s.Dump())
}

// WriteChromeTraceDump exports an already-captured span dump in Chrome
// trace-event JSON.
func WriteChromeTraceDump(w io.Writer, d SpanDump) error {
	var flat []chromeEvent
	var parents, depths []int
	flattenDump(d, d.Start, -1, 0, &flat, &parents, &depths)
	assignLanes(flat, parents, depths)
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: flat, DisplayUnit: "ms"})
}

// flattenDump appends d and its children as complete events with
// timestamps relative to the trace epoch, recording each event's parent
// index and depth for lane assignment.
func flattenDump(d SpanDump, epoch time.Time, parent, depth int, out *[]chromeEvent, parents, depths *[]int) {
	e := chromeEvent{
		Name: d.Name,
		Ph:   "X",
		Ts:   float64(d.Start.Sub(epoch)) / float64(time.Microsecond),
		Dur:  d.DurationMs * 1e3,
		Pid:  1,
	}
	if len(d.Attrs) > 0 {
		e.Args = d.Attrs
	}
	idx := len(*out)
	e.Span, e.Parent = idx+1, parent+1
	*out = append(*out, e)
	*parents = append(*parents, parent)
	*depths = append(*depths, depth)
	for _, c := range d.Children {
		flattenDump(c, epoch, idx, depth+1, out, parents, depths)
	}
}

// assignLanes spreads events across tids so every lane holds a valid
// nesting stack. An event may share a lane only if the lane's innermost
// still-open event is one of its ancestors: siblings of a concurrent
// fan-out therefore never stack inside each other, even when one's
// interval happens to contain the other's. Greedy first-fit keeps the
// sequential stages on lane 1 and spills overlap onto extra lanes.
func assignLanes(events []chromeEvent, parents, depths []int) {
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { // parents before children at equal start
		return cmp.Or(cmp.Compare(events[a].Ts, events[b].Ts), cmp.Compare(depths[a], depths[b]))
	})
	isAncestor := func(anc, i int) bool {
		for p := parents[i]; p >= 0; p = parents[p] {
			if p == anc {
				return true
			}
		}
		return false
	}
	type open struct {
		end float64
		idx int
	}
	var lanes [][]open
	for _, i := range order {
		ev := &events[i]
		end := ev.Ts + ev.Dur
		placed := false
		for lane := range lanes {
			stack := lanes[lane]
			// Close events that ended before this one starts.
			for len(stack) > 0 && stack[len(stack)-1].end <= ev.Ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 || (stack[len(stack)-1].end >= end && isAncestor(stack[len(stack)-1].idx, i)) {
				lanes[lane] = append(stack, open{end: end, idx: i})
				ev.Tid = lane + 1
				placed = true
				break
			}
			lanes[lane] = stack
		}
		if !placed {
			lanes = append(lanes, []open{{end: end, idx: i}})
			ev.Tid = len(lanes)
		}
	}
}

// StageTotal aggregates the wall time spent under one span name.
type StageTotal struct {
	Name  string
	Count int
	Total time.Duration
}

// StageTotals walks the dump and sums durations by span name, longest
// total first (ties broken by name for determinism).
func StageTotals(d SpanDump) []StageTotal {
	acc := make(map[string]*StageTotal)
	var walk func(SpanDump)
	walk = func(n SpanDump) {
		t := acc[n.Name]
		if t == nil {
			t = &StageTotal{Name: n.Name}
			acc[n.Name] = t
		}
		t.Count++
		t.Total += time.Duration(n.DurationMs * float64(time.Millisecond))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(d)
	out := make([]StageTotal, 0, len(acc))
	for _, t := range acc {
		out = append(out, *t)
	}
	slices.SortFunc(out, func(a, b StageTotal) int {
		return cmp.Or(cmp.Compare(b.Total, a.Total), strings.Compare(a.Name, b.Name))
	})
	return out
}

// FormatStageTable renders stage totals as an aligned text table. The
// share column is each stage's total relative to the run's wall time;
// fan-out stages legitimately exceed 100% — that is the parallelism.
func FormatStageTable(totals []StageTotal, wall time.Duration) []string {
	if len(totals) == 0 {
		return nil
	}
	width := len("stage")
	for _, t := range totals {
		width = max(width, len(t.Name))
	}
	lines := []string{fmt.Sprintf("%-*s  %7s  %12s  %6s", width, "stage", "count", "total", "share")}
	for _, t := range totals {
		share := 0.0
		if wall > 0 {
			share = 100 * float64(t.Total) / float64(wall)
		}
		lines = append(lines, fmt.Sprintf("%-*s  %7d  %12s  %5.1f%%",
			width, t.Name, t.Count, t.Total.Round(time.Microsecond), share))
	}
	return lines
}

// ParseTrace decodes the Chrome trace-event JSON WriteChromeTrace writes
// into a SpanDump tree, hanging each event under the parent span it
// names.
func ParseTrace(data []byte) (SpanDump, error) {
	if strings.TrimSpace(string(data)) == "" {
		return SpanDump{}, fmt.Errorf("obs: empty trace file")
	}
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return SpanDump{}, fmt.Errorf("obs: trace file is not Chrome trace JSON: %w", err)
	}
	var complete []chromeEvent
	for _, e := range ct.TraceEvents {
		if e.Ph == "X" {
			complete = append(complete, e)
		}
	}
	if len(complete) == 0 {
		return SpanDump{}, fmt.Errorf("obs: trace file holds no complete (ph \"X\") events")
	}
	// flattenDump numbers spans in the order it writes them, parents
	// first: event i is span i+1 and names an earlier span, the root none.
	children := make([][]int, len(complete))
	for i, e := range complete {
		if e.Span != i+1 || e.Parent > i || (e.Parent > 0) != (i > 0) {
			return SpanDump{}, fmt.Errorf("obs: trace event %d (%q) lacks the span links WriteChromeTrace writes (span %d, parent %d)", i, e.Name, e.Span, e.Parent)
		}
		if i > 0 {
			children[e.Parent-1] = append(children[e.Parent-1], i)
		}
	}
	var build func(i int) SpanDump
	build = func(i int) SpanDump {
		d := SpanDump{Name: complete[i].Name, DurationMs: complete[i].Dur / 1e3, Attrs: complete[i].Args}
		for _, c := range children[i] {
			d.Children = append(d.Children, build(c))
		}
		return d
	}
	return build(0), nil
}
