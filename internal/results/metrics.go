package results

import "repro/internal/obs"

// Metrics are the dataset-writer throughput instruments: samples appended
// and encoded bytes pushed toward the underlying writer.
type Metrics struct {
	Samples *obs.Counter
	Bytes   *obs.Counter
}

// NewMetrics registers the writer instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Samples: reg.Counter("results_samples_written_total", "Samples appended to the dataset."),
		Bytes:   reg.Counter("results_bytes_written_total", "Encoded sample bytes written to the dataset."),
	}
}
