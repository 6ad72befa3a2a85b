package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value of a
// nil pointer is an inert no-op, so instrumented code never guards.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec is a labeled counter family.
type CounterVec struct {
	f *family
}

// With returns the counter under the given label values (one per label
// name, in registration order), creating it on first use. Callers on hot
// paths should cache the returned pointer.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	m := v.f.instance(values, func() any { return new(Counter) })
	return m.(*Counter)
}

// Walk visits every instance in deterministic (sorted label) order.
func (v *CounterVec) Walk(fn func(labels []string, value uint64)) {
	if v == nil || v.f == nil {
		return
	}
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	for _, key := range sortedKeys(v.f.instances) {
		fn(splitLabelKey(key, len(v.f.labels)), v.f.instances[key].(*Counter).Value())
	}
}

// Sum returns the total across all label combinations.
func (v *CounterVec) Sum() uint64 {
	var total uint64
	v.Walk(func(_ []string, value uint64) { total += value })
	return total
}

// Gauge is a value that can go up and down (queue depths, progress,
// balances). It stores a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct {
	f *family
}

// With returns the gauge under the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	m := v.f.instance(values, func() any { return new(Gauge) })
	return m.(*Gauge)
}

// Walk visits every instance in deterministic (sorted label) order.
func (v *GaugeVec) Walk(fn func(labels []string, value float64)) {
	if v == nil || v.f == nil {
		return
	}
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	for _, key := range sortedKeys(v.f.instances) {
		fn(splitLabelKey(key, len(v.f.labels)), v.f.instances[key].(*Gauge).Value())
	}
}

// Histogram counts observations into fixed buckets (upper bounds,
// ascending, +Inf implicit) and tracks their sum. Observation is a binary
// search plus two atomic adds — cheap enough for per-ping recording.
type Histogram struct {
	buckets []float64       // upper bounds, ascending
	counts  []atomic.Uint64 // len(buckets)+1; last is the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{
		buckets: buckets,
		counts:  make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bucket with upper bound >= v.
	lo, hi := 0, len(h.buckets)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.buckets[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns cumulative bucket counts aligned with h.buckets plus
// the +Inf total. Concurrent observers may land between loads; each
// bucket value is individually consistent, which is all exposition needs.
func (h *Histogram) snapshot() (cumulative []uint64, total uint64) {
	cumulative = make([]uint64, len(h.buckets)+1)
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return cumulative, running
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	f *family
}

// With returns the histogram under the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	m := v.f.instance(values, func() any { return newHistogram(v.f.buckets) })
	return m.(*Histogram)
}

// splitLabelKey undoes labelKey. n is the expected arity; an empty key
// with zero labels yields an empty slice.
func splitLabelKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '\xff' {
			out = append(out, key[start:i])
			start = i + 1
		}
	}
	return append(out, key[start:])
}

// DurationBuckets are histogram bounds in seconds suited to HTTP handler
// latencies, from 100µs to 10s.
var DurationBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// FineDurationBuckets are log-scale histogram bounds in seconds from 1µs
// to 10s, three per decade — for paths whose fast case runs in
// microseconds (a cache hit, one stage of a request), which
// DurationBuckets would lump into its first bucket.
var FineDurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RTTBucketsMs are histogram bounds in milliseconds suited to wide-area
// ping RTTs, matching the paper's bands of interest (<10, 10-20, 20-100,
// >100 ms).
var RTTBucketsMs = []float64{1, 2, 5, 10, 15, 20, 30, 50, 75, 100, 150, 200, 300, 500, 1000}
