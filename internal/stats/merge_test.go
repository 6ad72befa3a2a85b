package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestDistMergeMatchesSequentialFold is the determinism contract the
// parallel scanner depends on: splitting a sample stream into contiguous
// shards, folding each shard into its own Dist, and merging the partials
// in shard order must reproduce the sequential fold bitwise — including
// the float sum/sumSq accumulators, which are order-sensitive.
func TestDistMergeMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 10007)
	for i := range samples {
		samples[i] = 1 + 400*rng.Float64()
	}
	var seq Dist
	if err := seq.AddAll(samples...); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 7} {
		parts := make([]*Dist, shards)
		for s := 0; s < shards; s++ {
			parts[s] = &Dist{}
			lo, hi := len(samples)*s/shards, len(samples)*(s+1)/shards
			if err := parts[s].AddAll(samples[lo:hi]...); err != nil {
				t.Fatal(err)
			}
		}
		merged := parts[0]
		for _, p := range parts[1:] {
			if err := merged.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		if merged.N() != seq.N() || merged.sum != seq.sum || merged.sumSq != seq.sumSq {
			t.Errorf("shards=%d: merged (n=%d sum=%x sumSq=%x) != sequential (n=%d sum=%x sumSq=%x)",
				shards, merged.N(), merged.sum, merged.sumSq, seq.N(), seq.sum, seq.sumSq)
		}
		mm, _ := merged.Median()
		sm, _ := seq.Median()
		if mm != sm {
			t.Errorf("shards=%d: median %v != %v", shards, mm, sm)
		}
	}
}

func TestDistMergeRejectsSelf(t *testing.T) {
	var d Dist
	if err := d.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(&d); err == nil {
		t.Error("self-merge accepted")
	}
	if err := d.Merge(nil); err != nil {
		t.Errorf("nil merge = %v, want nil", err)
	}
}

func TestHistogramMerge(t *testing.T) {
	mk := func() *Histogram {
		h, err := NewHistogram(0, 300, 30)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	seq, a, b := mk(), mk(), mk()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		v := -10 + 400*rng.Float64()
		if math.IsNaN(v) {
			continue
		}
		if err := seq.Add(v); err != nil {
			t.Fatal(err)
		}
		dst := a
		if i%2 == 1 {
			dst = b
		}
		if err := dst.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != seq.Total() || a.Underflow() != seq.Underflow() || a.Overflow() != seq.Overflow() {
		t.Errorf("merged totals %d/%d/%d != sequential %d/%d/%d",
			a.Total(), a.Underflow(), a.Overflow(), seq.Total(), seq.Underflow(), seq.Overflow())
	}
	ab, sb := a.Bins(), seq.Bins()
	for i := range sb {
		if ab[i] != sb[i] {
			t.Errorf("bin %d: got %+v, want %+v", i, ab[i], sb[i])
		}
	}

	narrow, err := NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(narrow); err == nil {
		t.Error("mismatched histogram bounds accepted")
	}
}

// TestDistMergeSortedEquivalence pins the sorted-receiver merge path
// (mergeSorted, used by snapshot-resumed suites) to the plain replay
// path: identical accumulator bits, identical sorted sample multiset,
// and sortedness preserved through successive merges.
func TestDistMergeSortedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := make([]float64, 5003)
	for i := range base {
		base[i] = 1 + 300*rng.Float64()
	}
	plain, sorted := &Dist{}, &Dist{}
	if err := plain.AddAll(base...); err != nil {
		t.Fatal(err)
	}
	if err := sorted.AddAll(base...); err != nil {
		t.Fatal(err)
	}
	if _, err := sorted.Median(); err != nil { // force the sorted state
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		delta := &Dist{}
		for i := 0; i < 97; i++ {
			if err := delta.Add(1 + 300*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if err := plain.Merge(delta); err != nil {
			t.Fatal(err)
		}
		if err := sorted.Merge(delta); err != nil {
			t.Fatal(err)
		}
		if !sorted.sorted {
			t.Fatalf("round %d: merge discarded sortedness", round)
		}
		if math.Float64bits(sorted.sum) != math.Float64bits(plain.sum) ||
			math.Float64bits(sorted.sumSq) != math.Float64bits(plain.sumSq) ||
			sorted.N() != plain.N() {
			t.Fatalf("round %d: accumulators diverged", round)
		}
		for i := 1; i < len(sorted.samples); i++ {
			if sorted.samples[i-1] > sorted.samples[i] {
				t.Fatalf("round %d: buffer not sorted at %d", round, i)
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
			pv, err := plain.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			sv, err := sorted.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(pv) != math.Float64bits(sv) {
				t.Fatalf("round %d: q%v %v != %v", round, q, sv, pv)
			}
		}
	}
}
