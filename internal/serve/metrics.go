// Package serve is the hot-path query serving layer embedded in
// atlasd: it keeps a decoded analysis suite resident in memory,
// advances it incrementally as the campaign appends, and answers
// figure, quantile, and windowed-CDF queries from that state — never
// from a cold scan. There is no read cache: a conditional request whose
// ETag matches the published snapshot gets its 304 before any fill, and
// every other request fills from the snapshot view. So an unconditional
// repeat of one window refills: ~0.2–1 ms on the index path, and on an
// engine without an index a scan, bounded by the fill deadline.
package serve

import (
	"repro/internal/obs"
)

// Metrics are the serving layer's instruments. A nil *Metrics (or any
// nil field) disables that instrument; the handlers never guard.
type Metrics struct {
	// Requests counts served requests by route.
	Requests *obs.CounterVec // route
	// RequestSeconds is the end-to-end handler latency by route.
	RequestSeconds *obs.HistogramVec // route
	// CacheHits and CacheMisses are never set, so they read 0: there is
	// no read cache. They stay for the load benchmark, which reads them.
	CacheHits, CacheMisses *obs.Counter
	// StaleServed counts responses rendered from a snapshot older than
	// the store's stable tail at request time — served fresh enough to
	// answer, but behind the appender.
	StaleServed *obs.Counter
	// RequestScans counts store scans performed on the request path.
	// Steady-state figure and quantile requests must never scan; only
	// windowed queries that missed the temporal index contribute here.
	RequestScans *obs.Counter
	// FillTimeouts counts window fills that hit the hard fill deadline
	// and answered 504 instead of scanning unboundedly; a fill its
	// request abandoned is not one.
	FillTimeouts *obs.Counter
	// WindowIndexQueries counts windowed requests materialized through
	// the temporal aggregate index instead of a block scan.
	WindowIndexQueries *obs.Counter
	// WindowIndexNodes and WindowIndexEdgeBlocks accumulate, across
	// index-served windows, the block records composed from prefix rows
	// and the boundary blocks that still had to decode.
	WindowIndexNodes      *obs.Counter
	WindowIndexEdgeBlocks *obs.Counter
	// WindowIndexFallbacks counts windowed requests that had a live
	// index view but fell back to scanning after a query error.
	WindowIndexFallbacks *obs.Counter
	// WindowStageSeconds is where a window fill's time went, by stage
	// (see the stage* constants); each fill observes only the stages it
	// ran, so a stage's count is how many fills reached it.
	WindowStageSeconds *obs.HistogramVec // stage
	// WindowSlabBytes counts the sidecar bytes index-served windows read
	// back — slab chunks, which only quantiles need.
	WindowSlabBytes *obs.Counter
	// Refreshes counts snapshot advances published by the refresher.
	Refreshes *obs.Counter
	// RefreshErrors counts refresher passes that failed and kept the
	// previous snapshot.
	RefreshErrors *obs.Counter
	// RefreshSeconds is the latency of one refresh pass (delta scan,
	// merge, report, render).
	RefreshSeconds *obs.Histogram
	// RefreshLagBytes is the gap between the store's stable data end and
	// the published snapshot's covered boundary.
	RefreshLagBytes *obs.Gauge
	// CoveredBytes and CoveredBlocks mirror the published snapshot's
	// coverage; Samples the rows folded into it.
	CoveredBytes  *obs.Gauge
	CoveredBlocks *obs.Gauge
	Samples       *obs.Gauge
}

// NewMetrics registers the serving instrument set on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Requests: reg.CounterVec("serve_requests_total",
			"Requests answered by the serving layer.", "route"),
		RequestSeconds: reg.HistogramVec("serve_request_seconds",
			"Serving-layer request latency.", obs.FineDurationBuckets, "route"),
		StaleServed: reg.Counter("serve_stale_served_total",
			"Responses rendered behind the store's stable tail."),
		RequestScans: reg.Counter("serve_request_scans_total",
			"Store scans performed on the request path (windowed queries that missed the index)."),
		FillTimeouts: reg.Counter("serve_fill_timeouts_total",
			"Window fills aborted by the hard fill deadline."),
		WindowIndexQueries: reg.Counter("serve_window_index_queries_total",
			"Windowed requests materialized through the temporal aggregate index."),
		WindowIndexNodes: reg.Counter("serve_window_index_nodes_total",
			"Block records composed across index-served windows."),
		WindowIndexEdgeBlocks: reg.Counter("serve_window_index_edge_blocks_total",
			"Boundary blocks decoded across index-served windows."),
		WindowIndexFallbacks: reg.Counter("serve_window_index_fallbacks_total",
			"Windowed requests that fell back from the index to a block scan."),
		WindowStageSeconds: reg.HistogramVec("serve_window_stage_seconds",
			"Time one window fill spent in each stage it ran.", obs.FineDurationBuckets, "stage"),
		WindowSlabBytes: reg.Counter("serve_window_slab_bytes_total",
			"Sidecar slab chunk bytes read back by index-served windows."),
		Refreshes: reg.Counter("serve_refresh_total",
			"Snapshot advances published by the refresher."),
		RefreshErrors: reg.Counter("serve_refresh_errors_total",
			"Refresh passes that failed and kept the previous snapshot."),
		RefreshSeconds: reg.Histogram("serve_refresh_seconds",
			"Latency of one refresh pass.", obs.DurationBuckets),
		RefreshLagBytes: reg.Gauge("serve_refresh_lag_bytes",
			"Store bytes past the published snapshot's covered boundary."),
		CoveredBytes: reg.Gauge("serve_snapshot_covered_bytes",
			"Covered byte boundary of the published snapshot."),
		CoveredBlocks: reg.Gauge("serve_snapshot_covered_blocks",
			"Covered block count of the published snapshot."),
		Samples: reg.Gauge("serve_snapshot_samples",
			"Samples folded into the published snapshot."),
	}
}
