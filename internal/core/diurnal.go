package core

import (
	"fmt"
	"math"
)

// DiurnalReport bins delivered samples by the probe's local hour of day,
// exposing the evening congestion peak that §4.3's bufferbloat citations
// describe. Local time is approximated from the probe's longitude
// (15 degrees per hour), the standard trick when probes report no
// timezone.
type DiurnalReport struct {
	// Medians holds the per-local-hour median RTT (ms); Counts the sample
	// volume behind each bin.
	Medians [24]float64
	Counts  [24]int
}

// Peak returns the local hour with the highest median RTT and its value.
func (r *DiurnalReport) Peak() (hour int, medianMs float64) {
	for h := range r.Medians {
		if r.Counts[h] > 0 && r.Medians[h] > medianMs {
			hour, medianMs = h, r.Medians[h]
		}
	}
	return hour, medianMs
}

// Trough returns the local hour with the lowest median RTT and its value.
func (r *DiurnalReport) Trough() (hour int, medianMs float64) {
	medianMs = math.Inf(1)
	for h := range r.Medians {
		if r.Counts[h] > 0 && r.Medians[h] < medianMs {
			hour, medianMs = h, r.Medians[h]
		}
	}
	return hour, medianMs
}

// Amplitude returns peak/trough, the relative size of the daily swing.
func (r *DiurnalReport) Amplitude() float64 {
	_, peak := r.Peak()
	_, trough := r.Trough()
	if trough <= 0 {
		return 0
	}
	return peak / trough
}

// Format renders the profile as text lines.
func (r *DiurnalReport) Format() []string {
	lines := []string{"local-hour  median-rtt  samples"}
	for h := 0; h < 24; h++ {
		if r.Counts[h] == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("%9dh  %8.1fms  %7d", h, r.Medians[h], r.Counts[h]))
	}
	return lines
}
