// Package stats is the statistics substrate for the analysis pipeline:
// exact empirical distributions (CDFs, quantiles), streaming quantile
// estimation for datasets too large to hold in memory, histograms, and
// the time-series points the figure generators plot.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by queries against a distribution with no samples.
var ErrEmpty = errors.New("stats: empty distribution")

// Dist accumulates float64 samples and answers exact empirical-distribution
// queries. The zero value is ready to use.
type Dist struct {
	samples []float64
	sorted  bool
	sum     float64
	sumSq   float64
}

// Add appends one sample. NaN and Inf samples are rejected.
func (d *Dist) Add(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("stats: invalid sample %v", v)
	}
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
	d.sumSq += v * v
	return nil
}

// FromSorted returns a Dist over samples, which must be finite and
// ascending. The Dist adopts the slice capped at its length, so a query
// never sorts it and an Add reallocates: the caller may share the slice
// with other readers as long as nothing writes to it. Its sums fold the
// samples in ascending order.
func FromSorted(samples []float64) *Dist {
	d := &Dist{samples: samples[:len(samples):len(samples)], sorted: true}
	for _, v := range samples {
		d.sum += v
		d.sumSq += v * v
	}
	return d
}

// AddBulk appends a batch of samples in order — the batch-kernel entry
// point. Behaviour matches calling Add per value (the valid prefix
// before the first invalid sample is appended, then the error), but
// the buffer grows once per batch instead of once per value.
func (d *Dist) AddBulk(vs []float64) error {
	bad := -1
	for k, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = k
			break
		}
	}
	take := vs
	if bad >= 0 {
		take = vs[:bad]
	}
	if len(take) > 0 {
		d.samples = append(d.samples, take...)
		d.sorted = false
		for _, v := range take {
			d.sum += v
			d.sumSq += v * v
		}
	}
	if bad >= 0 {
		return fmt.Errorf("stats: invalid sample %v", vs[bad])
	}
	return nil
}

// N returns the number of samples.
func (d *Dist) N() int { return len(d.samples) }

// Mean returns the arithmetic mean.
func (d *Dist) Mean() (float64, error) {
	if d.N() == 0 {
		return 0, ErrEmpty
	}
	return d.sum / float64(d.N()), nil
}

// StdDev returns the population standard deviation.
func (d *Dist) StdDev() (float64, error) {
	n := float64(d.N())
	if n == 0 {
		return 0, ErrEmpty
	}
	mean := d.sum / n
	variance := d.sumSq/n - mean*mean
	if variance < 0 { // numerical noise
		variance = 0
	}
	return math.Sqrt(variance), nil
}

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics (type-7, the common default).
func (d *Dist) Quantile(q float64) (float64, error) {
	d.ensureSorted()
	return QuantileOf(len(d.samples), q, func(k int) (float64, error) { return d.samples[k], nil })
}

// QuantileOf is the one definition of the type-7 q-quantile over n
// samples, reading the order statistics it interpolates between through
// at (at(k) is the k-th smallest sample, 0-based). Dist.Quantile answers
// through it, and so does any caller that selects order statistics its
// own way, so the two agree to the bit.
func QuantileOf(n int, q float64, at func(k int) (float64, error)) (float64, error) {
	if n == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	if n == 1 {
		return at(0)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	vlo, err := at(lo)
	if err != nil {
		return 0, err
	}
	if lo == hi {
		return vlo, nil
	}
	vhi, err := at(hi)
	if err != nil {
		return 0, err
	}
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac, nil
}

// Median returns the 0.5-quantile.
func (d *Dist) Median() (float64, error) { return d.Quantile(0.5) }

// CDF returns the empirical probability P(X <= x).
func (d *Dist) CDF(x float64) (float64, error) {
	if d.N() == 0 {
		return 0, ErrEmpty
	}
	d.ensureSorted()
	// Count of samples <= x == index of the first sample > x.
	idx := sort.SearchFloat64s(d.samples, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(d.N()), nil
}

// CDFPoint is one (x, P(X<=x)) pair of an empirical CDF curve.
type CDFPoint struct {
	X float64 `json:"x"`
	P float64 `json:"p"`
}

// Curve samples the empirical CDF at the given x values, producing the
// series a figure plots.
func (d *Dist) Curve(xs []float64) ([]CDFPoint, error) {
	if d.N() == 0 {
		return nil, ErrEmpty
	}
	out := make([]CDFPoint, 0, len(xs))
	for _, x := range xs {
		p, err := d.CDF(x)
		if err != nil {
			return nil, err
		}
		out = append(out, CDFPoint{X: x, P: p})
	}
	return out, nil
}

// Summary bundles the descriptive statistics reported for a distribution.
type Summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
}

// Summarize computes a Summary of the distribution. Its six order
// statistics are read in ascending rank, so an unsorted Dist selects
// each within the suffix the previous selection left above it — linear
// time instead of a sort, and the same values. The samples stay a
// permutation of themselves; later queries sort as usual.
func (d *Dist) Summarize() (Summary, error) {
	n := d.N()
	if n == 0 {
		return Summary{}, ErrEmpty
	}
	// Ranks are read in nondecreasing order — 0, each quantile's floor
	// and ceiling, n-1 — so each selection runs on the suffix above the
	// last, and a rank below from was itself selected and stays placed.
	from := 0
	at := func(k int) (float64, error) {
		if !d.sorted && k >= from {
			SelectRank(d.samples[from:], k-from)
			from = k + 1
		}
		return d.samples[k], nil
	}
	quantile := func(q float64) float64 {
		v, _ := QuantileOf(n, q, at) // at never fails and q is in [0,1]
		return v
	}
	s := Summary{N: n}
	s.Min = quantile(0)
	s.P25 = quantile(0.25)
	s.Median = quantile(0.5)
	s.P75 = quantile(0.75)
	s.P95 = quantile(0.95)
	s.Max = quantile(1)
	s.Mean, _ = d.Mean()
	s.StdDev, _ = d.StdDev()
	return s, nil
}

// SelectRank returns the k-th smallest element of a (0 <= k < len(a)),
// reordering a so that a[k] holds it, with nothing larger before it and
// nothing smaller after: quickselect with a three-way partition, so runs
// of equal samples — common at millisecond resolution — cost one pass,
// not many.
func SelectRank(a []float64, k int) float64 {
	for len(a) > 1 {
		p := a[len(a)/2]
		lt, i, gt := 0, 0, len(a)
		for i < gt {
			switch {
			case a[i] < p:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case a[i] > p:
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			a = a[:lt]
		case k < gt:
			return a[lt]
		default:
			a, k = a[gt:], k-gt
		}
	}
	return a[0]
}
