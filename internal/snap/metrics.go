package snap

import "repro/internal/obs"

// Metrics counts snapshot cache behavior. All methods are nil-safe so
// unmetered scans pay nothing.
type Metrics struct {
	Hits          *obs.Counter
	Misses        *obs.Counter
	Invalidations *obs.Counter
	Writes        *obs.Counter
	WriteErrors   *obs.Counter
	BlocksSkipped *obs.Counter
	BytesSkipped  *obs.Counter
}

// NewMetrics registers the snap_* counters on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Hits:          reg.Counter("snap_hits_total", "Scans resumed from a valid snapshot."),
		Misses:        reg.Counter("snap_misses_total", "Scans with no snapshot on disk."),
		Invalidations: reg.Counter("snap_invalidations_total", "Snapshots discarded as unusable (corrupt, mismatched, or stale)."),
		Writes:        reg.Counter("snap_writes_total", "Snapshots written."),
		WriteErrors:   reg.Counter("snap_write_errors_total", "Snapshot writes that failed; the scan's report was returned regardless."),
		BlocksSkipped: reg.Counter("snap_blocks_skipped_total", "Store blocks not decoded because a snapshot covered them."),
		BytesSkipped:  reg.Counter("snap_bytes_skipped_total", "Store bytes not decoded because a snapshot covered them."),
	}
}

// Hit records a scan resumed from a snapshot covering the given blocks
// and bytes.
func (m *Metrics) Hit(blocks int, bytes int64) {
	if m == nil {
		return
	}
	m.Hits.Inc()
	m.BlocksSkipped.Add(uint64(blocks))
	m.BytesSkipped.Add(uint64(bytes))
}

// Miss records a scan that found no snapshot.
func (m *Metrics) Miss() {
	if m == nil {
		return
	}
	m.Misses.Inc()
}

// Invalidate records a snapshot discarded as unusable.
func (m *Metrics) Invalidate() {
	if m == nil {
		return
	}
	m.Invalidations.Inc()
}

// Wrote records a snapshot write.
func (m *Metrics) Wrote() {
	if m == nil {
		return
	}
	m.Writes.Inc()
}

// WriteFailed records a snapshot write that failed.
func (m *Metrics) WriteFailed() {
	if m == nil {
		return
	}
	m.WriteErrors.Inc()
}
