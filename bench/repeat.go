package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
)

// runRepeat runs every selected workload o.repeat times on the same
// tree with the same seed and prints, per workload and end-to-end
// metric, each value, the relative difference between the extremes and
// the bound. It fails when any difference exceeds its bound: a metric
// that cannot repeat within its own bound cannot gate a change.
func runRepeat(ctx context.Context, e *env, o options, sz sizing, w io.Writer) error {
	if o.repeat < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs, got %d", o.repeat)
	}
	if o.trace == 1 {
		return fmt.Errorf("-repeat compares end-to-end metrics; it does not take -trace 1")
	}
	names := o.workloads()
	runs := make(map[string][]*result)
	for i := 0; i < o.repeat; i++ {
		for _, name := range names {
			res, err := runOne(ctx, e, name, o, sz)
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", name, i+1, err)
			}
			report(w, fmt.Sprintf("%s (run %d of %d)", name, i+1, o.repeat), res, endToEnd)
			runs[name] = append(runs[name], res)
		}
	}
	var over []string
	fmt.Fprintf(w, "\n%-14s %-22s %-6s %s\n", "workload", "metric", "unit", "values | rel.diff | bound")
	for _, name := range names {
		for _, m := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			vals := make([]string, 0, o.repeat)
			for _, r := range runs[name] {
				v := r.Metrics[m.Name]
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				vals = append(vals, fmt.Sprintf("%.4f", v))
			}
			diff := (hi - lo) / lo
			verdict := "ok"
			if diff > m.Bound {
				verdict = "OVER"
				over = append(over, name+"/"+m.Name)
			}
			fmt.Fprintf(w, "%-14s %-22s %-6s %s | %5.2f%% | %4.1f%% %s\n",
				name, m.Name, m.Unit, strings.Join(vals, " "), 100*diff, 100*m.Bound, verdict)
		}
		for i, r := range runs[name] {
			if !r.Correct || r.Failed > 0 {
				over = append(over, fmt.Sprintf("%s run %d: correct=%v failed=%d", name, i+1, r.Correct, r.Failed))
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("runs of the same tree disagree beyond the bound: %s", strings.Join(over, ", "))
	}
	return nil
}
