package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Merge folds other's samples into d by replaying them through Add in
// their stored insertion order. Replay — rather than summing the cached
// sum/sumSq accumulators — keeps the float folds associative with a
// sequential run: when contiguous dataset shards are merged in shard
// order, d's accumulators equal the bitwise result of adding every
// sample in original file order, for any shard count. other is not
// modified; merging a distribution into itself is rejected.
func (d *Dist) Merge(other *Dist) error {
	if other == nil {
		return nil
	}
	if other == d {
		return fmt.Errorf("stats: cannot merge distribution into itself")
	}
	if other.N() == 0 {
		return nil
	}
	// Replaying other.samples directly is only order-faithful while other
	// has never been queried (queries sort in place). Scan merges satisfy
	// this — partials are merged before any report runs — and for queried
	// distributions the sorted replay still yields an equivalent sample
	// multiset, so every rank-based query is unaffected.
	if d.sorted && len(d.samples) > 0 {
		return d.mergeSorted(other)
	}
	for _, v := range other.samples {
		if err := d.Add(v); err != nil {
			return err
		}
	}
	return nil
}

// mergeSorted folds other into an already-sorted d without discarding
// the sort: the accumulators replay other's insertion order exactly as
// the plain path does (float folds stay sequential-identical), while
// the sample buffers — order-free multisets for every rank query — are
// combined by a linear two-way merge. This keeps a resident
// distribution sorted through delta merges, so a report never pays an
// O(n log n) re-sort of the whole history.
func (d *Dist) mergeSorted(other *Dist) error {
	for _, v := range other.samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stats: invalid sample %v", v)
		}
		d.sum += v
		d.sumSq += v * v
	}
	tail := append([]float64(nil), other.samples...)
	sort.Float64s(tail)
	// Merge from the back, in place: the buffer grows by the tail's
	// length and elements shift right only until the tail is placed, so
	// a large sorted history absorbs a small append without a fresh
	// allocation or a full copy.
	n, m := len(d.samples), len(tail)
	d.samples = slices.Grow(d.samples, m)[:n+m]
	i, k := n-1, n+m-1
	for j := m - 1; j >= 0; k-- {
		if i >= 0 && d.samples[i] > tail[j] {
			d.samples[k] = d.samples[i]
			i--
		} else {
			d.samples[k] = tail[j]
			j--
		}
	}
	return nil
}

// Merge adds other's counts into h. The histograms must have identical
// bounds and bin counts. Counts are integers, so histogram merging is
// exact and order-independent.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if other.min != h.min || other.max != h.max || len(other.counts) != len(h.counts) {
		return fmt.Errorf("stats: cannot merge histogram [%v,%v)/%d into [%v,%v)/%d",
			other.min, other.max, len(other.counts), h.min, h.max, len(h.counts))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.underflow += other.underflow
	h.overflow += other.overflow
	h.total += other.total
	return nil
}
