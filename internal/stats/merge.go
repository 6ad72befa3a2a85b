package stats

import "fmt"

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
	// multiset, so every rank-based query is unaffected. A queried d is
	// fine too: Add clears its sorted flag, and the next query re-sorts.
	for _, v := range other.samples {
		if err := d.Add(v); err != nil {
			return err
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
	h.overflow += other.overflow
	h.total += other.total
	return nil
}
