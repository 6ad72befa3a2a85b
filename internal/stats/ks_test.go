package stats

import (
	"math/rand"
	"testing"
)

func fill(t *testing.T, rng *rand.Rand, n int, gen func() float64) *Dist {
	t.Helper()
	var d Dist
	for i := 0; i < n; i++ {
		if err := d.Add(gen()); err != nil {
			t.Fatal(err)
		}
	}
	return &d
}

func TestKSSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := fill(t, rng, 2000, func() float64 { return rng.NormFloat64()*5 + 20 })
	b := fill(t, rng, 2000, func() float64 { return rng.NormFloat64()*5 + 20 })
	res, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.D > 0.06 {
		t.Errorf("same-distribution D = %.3f", res.D)
	}
	if res.P < 0.01 {
		t.Errorf("same distribution flagged as different (p=%.4f)", res.P)
	}
}

func TestKSShiftedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wired := fill(t, rng, 1500, func() float64 { return rng.NormFloat64()*4 + 13 })
	wireless := fill(t, rng, 1500, func() float64 { return rng.NormFloat64()*8 + 31 })
	res, err := KolmogorovSmirnov(wired, wireless)
	if err != nil {
		t.Fatal(err)
	}
	if res.P >= 0.001 {
		t.Errorf("clearly shifted distributions not detected (D=%.3f p=%.4f)", res.D, res.P)
	}
	if res.D < 0.5 {
		t.Errorf("shifted D = %.3f, want large", res.D)
	}
}

func TestKSSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := fill(t, rng, 500, func() float64 { return rng.Float64() * 10 })
	b := fill(t, rng, 700, func() float64 { return rng.Float64()*10 + 2 })
	r1, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := KolmogorovSmirnov(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if r1.D != r2.D || r1.P != r2.P {
		t.Errorf("KS not symmetric: %+v vs %+v", r1, r2)
	}
}

func TestKSValidation(t *testing.T) {
	var empty Dist
	var one Dist
	if err := one.Add(1); err != nil {
		t.Fatal(err)
	}
	if _, err := KolmogorovSmirnov(nil, &one); err == nil {
		t.Error("nil distribution accepted")
	}
	if _, err := KolmogorovSmirnov(&empty, &one); err != ErrEmpty {
		t.Errorf("empty distribution: %v", err)
	}
}

func TestKSDoesNotMutateInputs(t *testing.T) {
	var a, b Dist
	if err := a.AddBulk([]float64{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBulk([]float64{9, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := KolmogorovSmirnov(&a, &b); err != nil {
		t.Fatal(err)
	}
	// The distributions still answer queries correctly afterwards.
	if m, _ := a.Median(); m != 2 {
		t.Errorf("a median = %v after KS", m)
	}
	if m, _ := b.Median(); m != 8 {
		t.Errorf("b median = %v after KS", m)
	}
}
