package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// curvePChecker holds appendCurveP to strconv.AppendFloat(f, 'f', -1,
// 64) and counts the values it declines.
type curvePChecker struct {
	t                *testing.T
	buf              []byte
	checked, decline int
}

func (k *curvePChecker) check(f float64) {
	k.checked++
	// A prefix the kernel must append to, not overwrite.
	got, ok := appendCurveP(append(k.buf[:0], `"p":`...), f)
	k.buf = got
	if !ok {
		if f >= 1e-6 && f < 1 {
			k.decline++
		}
		if string(got) != `"p":` {
			k.t.Fatalf("%v: declined but wrote %q", f, got)
		}
		return
	}
	if want := strconv.AppendFloat([]byte(`"p":`), f, 'f', -1, 64); !bytes.Equal(got, want) {
		k.t.Fatalf("%v (bits %#x): kernel wrote %s, strconv %s", f, math.Float64bits(f), got, want)
	}
}

// accepts fails unless the kernel rendered all but a maxDecline share
// of the values checked in [1e-6, 1), so an always-declining kernel
// cannot pass.
func (k *curvePChecker) accepts(what string, maxDecline float64) {
	k.t.Logf("%s: %d values, %d declined", what, k.checked, k.decline)
	if float64(k.decline) > maxDecline*float64(k.checked) {
		k.t.Fatalf("%s: kernel declined %d of %d values", what, k.decline, k.checked)
	}
	k.checked, k.decline = 0, 0
}

// TestCurvePMatchesStrconv pins the curve-value kernel to strconv byte
// for byte: every c/n with 1 <= c < n <= 2000, every power of two in
// [2^-20, 2^-1] +- 64 ulps (where the rounding interval is lopsided),
// dyadic j/2^k for k in [18, 20], whose scaled centres tie, a million
// seeded random bit patterns in [1e-6, 1), and the short decimals
// k·1e-6 and k·1e-7, which sit on the multiples of 1e9 the kernel
// leaves to strconv.
func TestCurvePMatchesStrconv(t *testing.T) {
	k := &curvePChecker{t: t}
	for n := 2; n <= 2000; n++ {
		for c := 1; c < n; c++ {
			k.check(float64(c) / float64(n))
		}
	}
	k.accepts("c/n", 0.02)
	for e := -20; e <= -1; e++ {
		p := math.Ldexp(1, e)
		bits := math.Float64bits(p)
		for d := -64; d <= 64; d++ {
			k.check(math.Float64frombits(bits + uint64(d)))
		}
	}
	k.accepts("powers of two", 0.01)
	// j/2^k scales to a centre that can end in an exact half, where
	// both of strconv's round-half-to-even rules come into play.
	for e := 18; e <= 20; e++ {
		for j := 1; j < 1<<e; j += 2 {
			k.check(math.Ldexp(float64(j), -e))
		}
	}
	k.accepts("dyadic j/2^k", 0.01)
	rng := rand.New(rand.NewSource(40))
	for k.checked < 1_000_000 {
		// Biased exponents 1002..1022 span [2^-21, 1); draws below 1e-6
		// are discarded.
		f := math.Float64frombits(uint64(1002+rng.Intn(21))<<52 | rng.Uint64()&(1<<52-1))
		if f >= 1e-6 {
			k.check(f)
		}
	}
	k.accepts("random", 0.001)
	for i := 1; i < 1_000_000; i++ {
		k.check(float64(i) / 1e6)
		k.check(float64(i) / 1e7)
	}
	k.accepts("k·1e-6 and k·1e-7", 1)
}

// TestCurvePDeclines pins what the kernel leaves to the general
// formatter: values outside [1e-6, 1) and bounds that straddle a
// multiple of 1e9 — short decimals such as 0.1 and powers of two such
// as 0.5, whose digits strconv trims nine at a time.
func TestCurvePDeclines(t *testing.T) {
	for _, f := range []float64{
		0, 1, math.Copysign(0, -1), -0.5, 1.5, 9.999999999999999e-7, 5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1),
		0.1, 0.5, 0.25, 0.75, 1e-6, 0.3, 0.999,
	} {
		if got, ok := appendCurveP([]byte("x"), f); ok || string(got) != "x" {
			t.Errorf("%v: kernel rendered %q; want it declined", f, got)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		// A declined value still renders as encoding/json renders it.
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := appendJSONFloat(nil, f); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%v: rendered %s (%v), encoding/json %s", f, got, err, want)
		}
	}
}
