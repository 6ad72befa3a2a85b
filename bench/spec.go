package main

import (
	"encoding/json"
	"fmt"
)

// metricSpec names one metric of the benchmark contract. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

type workloadSpec struct {
	Name string
	Why  string
}

// runSeconds is the nominal length of one run's timed phase; op counts
// scale from it (see sizeFor).
const runSeconds = 20

var workloadSpecs = []workloadSpec{
	{"paper_run", "write path a researcher pays for: shears child runs campaign, sink+fsync, checkpoint snapshot fold, tix build, fused scan, figures; serve idle"},
	{"reanalyze", "read path on a stored dataset: fresh figures/dataset processes resume or extend the snap/tix sidecars paper_run writes, so a cheaper checkpoint that makes resume dearer shows"},
	{"serve_windows", "compute-bound serving op: distinct [since,until) windows over loopback to atlasd, every request a cache miss through tix.Query; bypasses snapshots and the write path"},
	{"serve_ingest", "serve and tix the other way round: append, refresh, Extend, publish and cache invalidation beside panel reads on a growing store; resident state that helps serve_windows costs here"},
}

// endToEnd lists what a user of the system sees. The time metrics
// carry the contract's widest bound: identical work on the shared
// sandbox spreads by a tenth and drifts further over minutes (README,
// "Sizing evidence"). peak_rss_mb moves with GC timing by a few percent;
// disk_bytes_per_sample is a deterministic count.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"disk_bytes_per_sample", "B", "lower", 0.01},
}

// perLayer lists the traced run's metrics; layers are the module names.
var perLayer = []metricSpec{
	{"world.build_ms", "ms", "lower", 0},
	{"netem.path_rtt_ns", "ns", "lower", 0},
	{"engine.generate_samples_per_s", "1/s", "higher", 0},
	{"engine.queue_depth_peak", "count", "lower", 0},
	{"results.write_mb_per_s", "MB/s", "higher", 0},
	{"results.commit_ms", "ms", "lower", 0},
	{"colf.bytes_per_sample", "B", "lower", 0},
	{"snap.update_first_ms", "ms", "lower", 0},
	{"snap.update_last_ms", "ms", "lower", 0},
	{"snap.update_total_s", "s", "lower", 0},
	{"snap.bytes_written_per_data_byte", "B/B", "lower", 0},
	{"snap.file_bytes_per_sample", "B", "lower", 0},
	{"snap.load_ms", "ms", "lower", 0},
	{"snap.resume_ms", "ms", "lower", 0},
	{"snap.resume_blocks_read", "count", "lower", 0},
	{"snap.rewrite_ratio", "B/B", "lower", 0},
	{"tix.build_ms", "ms", "lower", 0},
	{"tix.nodes", "count", "lower", 0},
	{"tix.file_bytes_per_sample", "B", "lower", 0},
	{"tix.open_ms", "ms", "lower", 0},
	{"tix.extend_ms_per_block", "ms", "lower", 0},
	{"tix.query_p50_ms", "ms", "lower", 0},
	{"tix.query_p95_ms", "ms", "lower", 0},
	{"tix.query_nodes_mean", "count", "lower", 0},
	{"tix.query_edge_blocks_mean", "count", "lower", 0},
	{"tix.query_narrow_ms", "ms", "lower", 0},
	{"tix.query_wide_ms", "ms", "lower", 0},
	{"scan.cold_samples_per_s_w1", "1/s", "higher", 0},
	{"scan.cold_samples_per_s_w2", "1/s", "higher", 0},
	{"colf.decode_rows_per_s", "1/s", "higher", 0},
	{"scan.window_blocks_decoded_ratio", "ratio", "lower", 0},
	{"scan.zone_resolved_ratio", "ratio", "higher", 0},
	{"core.suite_report_ms", "ms", "lower", 0},
	{"figures.render_ms", "ms", "lower", 0},
	{"serve.open_ms", "ms", "lower", 0},
	{"serve.refresh_ms", "ms", "lower", 0},
	{"serve.refresh_samples_per_s", "1/s", "higher", 0},
	{"serve.handler_window_p50_ms", "ms", "lower", 0},
	{"serve.handler_window_p95_ms", "ms", "lower", 0},
	{"serve.window_p99_ms", "ms", "lower", 0},
	{"serve.handler_window_scan_p50_ms", "ms", "lower", 0},
	{"serve.handler_hit_us", "us", "lower", 0},
	{"serve.loopback_hit_us", "us", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.rss_kb_per_cached_window", "kB", "lower", 0},
	{"bench.unattributed_ratio", "ratio", "lower", 0},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// benchmarkJSON renders the contract file. BENCHMARK.json at the repo
// root is this function's output (go run . -print-spec); a test keeps
// the two from drifting.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding BENCHMARK.json: %w", err)
	}
	return append(b, '\n'), nil
}
