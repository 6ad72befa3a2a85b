package scan

import (
	"strconv"

	"repro/internal/colf"
	"repro/internal/obs"
)

// Metrics are the scanner's instruments. A nil *Metrics (or any nil
// field) disables that instrument; the scanner never guards.
type Metrics struct {
	// Scans counts completed scans.
	Scans *obs.Counter
	// Samples counts samples decoded across all scans.
	Samples *obs.Counter
	// Bytes counts file bytes covered across all scans.
	Bytes *obs.Counter
	// SamplesPerSec is the decode throughput of the latest scan.
	SamplesPerSec *obs.Gauge
	// BytesPerSec is the byte throughput of the latest scan.
	BytesPerSec *obs.Gauge
	// Utilization is the mean worker busy fraction of the latest scan.
	Utilization *obs.Gauge
	// WorkerBusy is the per-worker busy time of the latest scan, seconds.
	WorkerBusy *obs.GaugeVec // worker
	// Colf holds the columnar reader's block accounting.
	Colf *colf.Metrics
}

// NewMetrics registers the scanner instrument set on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Scans: reg.Counter("scan_total",
			"Completed dataset scans."),
		Samples: reg.Counter("scan_samples_total",
			"Samples decoded by the parallel scanner."),
		Bytes: reg.Counter("scan_bytes_total",
			"Dataset bytes covered by the parallel scanner."),
		SamplesPerSec: reg.Gauge("scan_samples_per_second",
			"Decode throughput of the latest scan."),
		BytesPerSec: reg.Gauge("scan_bytes_per_second",
			"Byte throughput of the latest scan."),
		Utilization: reg.Gauge("scan_worker_utilization",
			"Mean worker busy fraction of the latest scan (0-1)."),
		WorkerBusy: reg.GaugeVec("scan_worker_busy_seconds",
			"Per-worker busy time of the latest scan.", "worker"),
		Colf: colf.NewMetrics(reg),
	}
}

// observe records one completed scan.
func (m *Metrics) observe(st Stats) {
	if m == nil {
		return
	}
	m.Scans.Inc()
	m.Samples.Add(st.Samples)
	m.Bytes.Add(uint64(st.Bytes))
	if st.Duration > 0 {
		m.SamplesPerSec.Set(st.SamplesPerSec())
		m.BytesPerSec.Set(st.MBPerSec() * 1e6)
	}
	m.Utilization.Set(st.Utilization())
	for w, b := range st.Busy {
		m.WorkerBusy.With(strconv.Itoa(w)).Set(b.Seconds())
	}
	m.Colf.Observe(st.BlocksRead, st.BlocksSkipped, st.BytesDecoded)
}
