package netem

import (
	"math"
	"runtime"
	"testing"
)

// expNoFMA is exp_amd64.s's other path, for a CPU without FMA: exp's
// steps with every product rounded before it is added.
func expNoFMA(x float64) float64 {
	switch bits := math.Float64bits(x); {
	case bits == math.Float64bits(math.Inf(-1)):
		return 0
	case bits&^(1<<63) >= math.Float64bits(math.Inf(1)):
		return x
	case x > 7.09782712893384e+02:
		return math.Inf(1)
	}
	k := max(math.RoundToEven(x*1.4426950408889634073599246810018920), math.MinInt32)
	e := int32(k)
	x -= float64(k * 0.69314718055966295651160180568695068359375)
	x -= float64(k * 0.28235290563031577122588448175013436025525412068e-12)
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0} {
		p = float64(p*x) + c
	}
	x *= p
	for i := 0; i < 4; i++ {
		x *= x + 2
	}
	x++
	switch e += 0x3ff; {
	case e >= 0x7ff:
		return math.Inf(1)
	case e > 0:
		return x * math.Float64frombits(uint64(e)<<52)
	case e < -52:
		return 0
	}
	return x * math.Float64frombits(uint64(e+0x3fe)<<52) * math.Float64frombits(1<<52)
}

// expInputs calls fn with n seeded inputs: fifteen in sixteen uniform
// over [-30, 30], where the lognormal draws fall, and the rest over
// [-760, 720], through the subnormal, underflow and overflow steps.
func expInputs(n int, fn func(x float64) bool) {
	state := uint64(0x5eed)
	for i := 0; i < n; i++ {
		// splitmix64
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		u := float64((z^z>>31)>>11) / (1 << 53)
		x := -30 + 60*u
		if i%16 == 15 {
			x = -760 + 1480*u
		}
		if !fn(x) {
			return
		}
	}
}

// TestExpMatchesMathExp pins exp bit for bit to math.Exp on 10⁸ seeded
// inputs and the edge values, where math.Exp is exp_amd64.s's FMA path:
// amd64 hosts whose CPU has FMA. Elsewhere math.Exp is another
// computation — pure Go on 386, other assembly on arm64 and s390x — and
// the test skips. The two amd64 paths are told apart at the first input
// where they differ: a host whose math.Exp gives expNoFMA's bits there
// has no FMA, and the test skips there too.
func TestExpMatchesMathExp(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Exp on %s is not exp_amd64.s", runtime.GOARCH)
	}
	witness := math.NaN()
	expInputs(1<<20, func(x float64) bool {
		if exp(x) != expNoFMA(x) {
			witness = x
			return false
		}
		return true
	})
	if math.IsNaN(witness) {
		t.Fatal("no input tells exp_amd64.s's two paths apart")
	}
	if got := math.Exp(witness); got == expNoFMA(witness) {
		t.Skipf("math.Exp(%v) takes the path without FMA: this CPU has none", witness)
	}
	edges := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.Ln2, 709.78, 7.09782712893384e+02, 709.79, -708.39, -708.4, -745.13, -745.14,
		-1e300, 1e300, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range edges {
		if got, want := exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const n = 100_000_000
	mismatches := 0
	expInputs(n, func(x float64) bool {
		if got, want := exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			if mismatches++; mismatches <= 5 {
				t.Errorf("exp(%v) = %#x, math.Exp %#x", x, math.Float64bits(got), math.Float64bits(want))
			}
		}
		return true
	})
	if mismatches > 0 {
		t.Errorf("%d of %d inputs differ from math.Exp", mismatches, n)
	}
}
