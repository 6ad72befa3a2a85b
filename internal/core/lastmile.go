package core

import (
	"errors"
	"time"

	"repro/internal/results"
	"repro/internal/stats"
)

// LastMileReport is Figure 7: wired vs wireless RTT over the measurement
// period, from tag-filtered probe sets (§4.3).
type LastMileReport struct {
	Wired    []stats.SeriesPoint `json:"wired"`
	Wireless []stats.SeriesPoint `json:"wireless"`
}

// LastMile bins the delivered nearest-region samples of wired- and
// wireless-tagged probes into windows of the given width and reports
// per-bin medians/quartiles. Following the paper's methodology, only probes
// "deployed in similar regions in both sets" enter the comparison: we keep
// tier-1/tier-2 countries, where the access link rather than the transit
// path dominates the difference.
// It is a single-pass wrapper over NearestPass; a bad bin width fails
// before the source is read.
func LastMile(src results.Source, idx *Index, start time.Time, binWidth time.Duration) (*LastMileReport, error) {
	if src == nil || idx == nil {
		return nil, errors.New("analysis: nil source or index")
	}
	if _, err := stats.NewTimeSeries(start, binWidth); err != nil {
		return nil, err
	}
	p := NewNearestPass(idx)
	if err := RunPasses(src, p); err != nil {
		return nil, err
	}
	return p.LastMile(start, binWidth)
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

// LastMileSignificance runs a two-sample Kolmogorov-Smirnov test on the
// wired and wireless nearest-region RTT populations (same filtering as
// Figure 7), confirming the gap is a distributional difference and not a
// binning artifact.
func LastMileSignificance(src results.Source, idx *Index) (stats.KSResult, error) {
	if src == nil || idx == nil {
		return stats.KSResult{}, errors.New("core: nil source or index")
	}
	p := NewNearestPass(idx)
	if err := RunPasses(src, p); err != nil {
		return stats.KSResult{}, err
	}
	return p.Significance()
}
