package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	if _, err := d.Mean(); err != ErrEmpty {
		t.Errorf("Mean on empty = %v, want ErrEmpty", err)
	}
	if err := d.AddAll(3, 1, 2, 5, 4); err != nil {
		t.Fatal(err)
	}
	if d.N() != 5 {
		t.Errorf("N = %d, want 5", d.N())
	}
	if m, _ := d.Mean(); m != 3 {
		t.Errorf("Mean = %v, want 3", m)
	}
	if m, _ := d.Quantile(0); m != 1 {
		t.Errorf("Quantile(0) = %v, want 1", m)
	}
	if m, _ := d.Quantile(1); m != 5 {
		t.Errorf("Quantile(1) = %v, want 5", m)
	}
	if m, _ := d.Median(); m != 3 {
		t.Errorf("Median = %v, want 3", m)
	}
	sd, _ := d.StdDev()
	if math.Abs(sd-math.Sqrt(2)) > 1e-9 {
		t.Errorf("StdDev = %v, want sqrt(2)", sd)
	}
}

func TestDistRejectsInvalid(t *testing.T) {
	var d Dist
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := d.Add(v); err == nil {
			t.Errorf("Add(%v) accepted", v)
		}
	}
	if d.N() != 0 {
		t.Errorf("invalid samples were stored: N=%d", d.N())
	}
}

func TestQuantileInterpolation(t *testing.T) {
	var d Dist
	if err := d.AddAll(10, 20); err != nil {
		t.Fatal(err)
	}
	q, err := d.Quantile(0.5)
	if err != nil || q != 15 {
		t.Errorf("Quantile(0.5) = %v, %v; want 15", q, err)
	}
	if _, err := d.Quantile(-0.1); err == nil {
		t.Error("Quantile(-0.1) accepted")
	}
	if _, err := d.Quantile(1.1); err == nil {
		t.Error("Quantile(1.1) accepted")
	}
	// Single sample: every quantile is that sample.
	var one Dist
	if err := one.Add(7); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.3, 1} {
		got, err := one.Quantile(q)
		if err != nil || got != 7 {
			t.Errorf("single-sample Quantile(%v) = %v, %v", q, got, err)
		}
	}
}

func TestCDF(t *testing.T) {
	var d Dist
	if err := d.AddAll(1, 2, 2, 3); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		got, err := d.CDF(tc.x)
		if err != nil || got != tc.want {
			t.Errorf("CDF(%v) = %v, %v; want %v", tc.x, got, err, tc.want)
		}
	}
	curve, err := d.Curve([]float64{1, 2, 3})
	if err != nil || len(curve) != 3 || curve[1].P != 0.75 {
		t.Errorf("Curve = %v, %v", curve, err)
	}
}

func TestDistProperties(t *testing.T) {
	// Quantile is monotone in q, CDF is monotone in x, and
	// CDF(Quantile(q)) >= q for any sample set.
	prop := func(raw []float64, qa, qb float64) bool {
		var d Dist
		n := 0
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				if err := d.Add(v); err != nil {
					return false
				}
				n++
			}
		}
		if n == 0 {
			return true
		}
		clampQ := func(q float64) float64 {
			q = math.Abs(math.Mod(q, 1))
			if math.IsNaN(q) {
				return 0.5
			}
			return q
		}
		qa, qb = clampQ(qa), clampQ(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		va, err := d.Quantile(qa)
		if err != nil {
			return false
		}
		vb, err := d.Quantile(qb)
		if err != nil {
			return false
		}
		if va > vb+1e-9 {
			return false
		}
		ca, err := d.CDF(va)
		if err != nil {
			return false
		}
		cb, err := d.CDF(vb)
		if err != nil {
			return false
		}
		return ca <= cb+1e-12 && cb <= 1 && ca >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	var d Dist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if err := d.Add(rng.Float64() * 100); err != nil {
			t.Fatal(err)
		}
	}
	s, err := d.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1000 {
		t.Errorf("N = %d", s.N)
	}
	if !(s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 && s.P75 <= s.P95 && s.P95 <= s.Max) {
		t.Errorf("summary not ordered: %+v", s)
	}
	if s.Mean < 40 || s.Mean > 60 {
		t.Errorf("uniform mean = %v, want ~50", s.Mean)
	}
	var empty Dist
	if _, err := empty.Summarize(); err != ErrEmpty {
		t.Errorf("Summarize on empty = %v", err)
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var d Dist
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
		if err := d.Add(vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	sort.Float64s(vals)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got, err := d.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := vals[int(q*100)]
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
