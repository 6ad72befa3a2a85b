package core

import (
	"errors"

	"repro/internal/stats"
)

// LastMileReport is Figure 7: wired vs wireless RTT over the measurement
// period, from tag-filtered probe sets (§4.3).
type LastMileReport struct {
	Wired    []stats.SeriesPoint `json:"wired"`
	Wireless []stats.SeriesPoint `json:"wireless"`
}

// MedianRatio returns the campaign-wide wireless/wired ratio of the median
// bin medians — the paper's "~2.5x longer" headline number.
func (r *LastMileReport) MedianRatio() (float64, error) {
	wired, err := medianOfMedians(r.Wired)
	if err != nil {
		return 0, err
	}
	wireless, err := medianOfMedians(r.Wireless)
	if err != nil {
		return 0, err
	}
	if wired <= 0 {
		return 0, errors.New("analysis: non-positive wired median")
	}
	return wireless / wired, nil
}

// AddedLatencyMs returns the absolute extra latency of wireless access —
// the paper cites 10-40 ms of added last-mile delay.
func (r *LastMileReport) AddedLatencyMs() (float64, error) {
	wired, err := medianOfMedians(r.Wired)
	if err != nil {
		return 0, err
	}
	wireless, err := medianOfMedians(r.Wireless)
	if err != nil {
		return 0, err
	}
	return wireless - wired, nil
}

func medianOfMedians(points []stats.SeriesPoint) (float64, error) {
	var d stats.Dist
	for _, p := range points {
		if err := d.Add(p.Median); err != nil {
			return 0, err
		}
	}
	return d.Median()
}
