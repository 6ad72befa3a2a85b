package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSelectRankMatchesSort: SelectRank returns the sorted slice's k-th
// element at every rank, over short slices heavy with equal values, and
// leaves it at index k with nothing larger before and nothing smaller
// after — the placement Summarize's successive selections rely on.
func TestSelectRankMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		vals := make([]float64, 1+rng.Intn(60))
		distinct := 1 + rng.Intn(8)
		for i := range vals {
			vals[i] = float64(rng.Intn(distinct)-distinct/2) * 0.5
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		for k := range vals {
			a := slices.Clone(vals)
			rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			if got := SelectRank(a, k); got != sorted[k] || a[k] != got {
				t.Fatalf("round %d: rank %d of %v = %v at a[k] %v, sorted %v", round, k, vals, got, a[k], sorted[k])
			}
			if slices.Max(a[:k+1]) != a[k] || slices.Min(a[k:]) != a[k] {
				t.Fatalf("round %d: rank %d not partitioned: %v", round, k, a)
			}
		}
	}
}

// sortedSummary is Summarize as it was before selection: every order
// statistic read from a fully sorted copy.
func sortedSummary(t *testing.T, vals []float64) Summary {
	t.Helper()
	var d Dist
	if err := d.AddBulk(vals); err != nil {
		t.Fatal(err)
	}
	q := func(p float64) float64 {
		v, err := d.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	s := Summary{N: d.N(), Min: q(0), P25: q(0.25), Median: q(0.5), P75: q(0.75), P95: q(0.95), Max: q(1)}
	s.Mean, _ = d.Mean()
	s.StdDev, _ = d.StdDev()
	return s
}

func summaryBits(s Summary) [9]uint64 {
	return [9]uint64{uint64(s.N), math.Float64bits(s.Min), math.Float64bits(s.P25), math.Float64bits(s.Median),
		math.Float64bits(s.P75), math.Float64bits(s.P95), math.Float64bits(s.Max),
		math.Float64bits(s.Mean), math.Float64bits(s.StdDev)}
}

// TestSummarizeMatchesSort: Summarize by selection returns bit for bit
// what the sort returned — for every n from 1 to 8, random sizes, heavy
// duplicates at millisecond resolution, ascending and descending input,
// and a Dist a query had already sorted — and Quantile and CDF answer
// afterwards exactly as on a fresh Dist.
func TestSummarizeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var cases [][]float64
	for n := 1; n <= 8; n++ {
		for rep := 0; rep < 50; rep++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(1 + rng.Intn(4)) // duplicates at small n too
				if rep%2 == 1 {
					vals[i] = rng.ExpFloat64() * 30
				}
			}
			cases = append(cases, vals)
		}
	}
	for rep := 0; rep < 200; rep++ {
		n := 1 + rng.Intn(5000)
		vals := make([]float64, n)
		for i := range vals {
			switch rep % 3 {
			case 0: // continuous RTTs
				vals[i] = 5 + rng.ExpFloat64()*40
			case 1: // millisecond resolution: few distinct values
				vals[i] = float64(10 + rng.Intn(1+rng.Intn(30)))
			case 2: // one value
				vals[i] = 42
			}
		}
		cases = append(cases, vals)
		asc := slices.Clone(vals)
		slices.Sort(asc)
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		cases = append(cases, asc, desc)
	}
	probes := []float64{0, 0.01, 0.1, 0.25, 0.33, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	for ci, vals := range cases {
		want := sortedSummary(t, vals)
		for _, presorted := range []bool{false, true} {
			var d, fresh Dist
			if err := d.AddBulk(vals); err != nil {
				t.Fatal(err)
			}
			if err := fresh.AddBulk(vals); err != nil {
				t.Fatal(err)
			}
			if presorted {
				if _, err := d.Quantile(0.5); err != nil {
					t.Fatal(err)
				}
			}
			got, err := d.Summarize()
			if err != nil {
				t.Fatal(err)
			}
			if summaryBits(got) != summaryBits(want) {
				t.Fatalf("case %d (n=%d, presorted=%v): Summarize %+v, sort %+v", ci, len(vals), presorted, got, want)
			}
			for _, p := range probes {
				x := vals[rng.Intn(len(vals))] + float64(rng.Intn(3)-1)
				ca, _ := d.CDF(x)
				cb, _ := fresh.CDF(x)
				a, _ := d.Quantile(p)
				b, _ := fresh.Quantile(p)
				if math.Float64bits(a) != math.Float64bits(b) || ca != cb {
					t.Fatalf("case %d after Summarize: Quantile(%v) %v vs %v, CDF(%v) %v vs %v", ci, p, a, b, x, ca, cb)
				}
			}
		}
	}
}
