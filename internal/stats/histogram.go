package stats

import (
	"fmt"
	"math"
)

// Histogram counts samples into fixed-width bins over [min, max), with
// an overflow bucket; samples below min count only toward the total. It
// backs the latency-band tallies of Figure 4.
type Histogram struct {
	min, max float64
	width    float64
	counts   []uint64
	overflow uint64
	total    uint64
}

// NewHistogram creates a histogram with n equal bins spanning [min, max).
func NewHistogram(min, max float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: histogram needs >= 1 bin, got %d", n)
	}
	if !(min < max) || math.IsNaN(min) || math.IsNaN(max) {
		return nil, fmt.Errorf("stats: invalid histogram range [%v, %v)", min, max)
	}
	return &Histogram{
		min:    min,
		max:    max,
		width:  (max - min) / float64(n),
		counts: make([]uint64, n),
	}, nil
}

// AddBulk counts a batch of samples. The samples before the first
// invalid one are counted, then it returns the error.
func (h *Histogram) AddBulk(vs []float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stats: invalid sample %v", v)
		}
		h.total++
		switch {
		case v < h.min: // below the range: counted in the total only
		case v >= h.max:
			h.overflow++
		default:
			idx := int((v - h.min) / h.width)
			if idx >= len(h.counts) { // guard against float rounding at max
				idx = len(h.counts) - 1
			}
			h.counts[idx]++
		}
	}
	return nil
}

// Total returns the number of samples added.
func (h *Histogram) Total() uint64 { return h.total }

// Bin describes one histogram bucket.
type Bin struct {
	Lo, Hi float64
	Count  uint64
}

// Bins returns the in-range buckets, low to high.
func (h *Histogram) Bins() []Bin {
	out := make([]Bin, len(h.counts))
	for i, c := range h.counts {
		out[i] = Bin{
			Lo:    h.min + float64(i)*h.width,
			Hi:    h.min + float64(i+1)*h.width,
			Count: c,
		}
	}
	return out
}

// Overflow returns the count of samples at or above the range.
func (h *Histogram) Overflow() uint64 { return h.overflow }
