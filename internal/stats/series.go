package stats

import "time"

// SeriesPoint is one aggregated bin of a time series.
type SeriesPoint struct {
	Start  time.Time `json:"start"`  // bin start
	N      int       `json:"n"`      // samples in the bin
	Median float64   `json:"median"` // bin median
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
}
