// The exponential below transliterates the FMA path of Go's
// math/exp_amd64.s (Copyright 2010 The Go Authors; see NOTICE), itself
// after Naoki Shibata's SLEEF, so that every target computes the bits
// amd64 hosts with FMA do: math.FMA is correctly rounded everywhere.

package netem

import "math"

// exp returns e**x exactly as math.Exp does on amd64 with FMA: reduce
// by k = round(x·log2e) with fused steps, a degree-8 Taylor polynomial
// in x/16, four squarings (the last fused with the final +1), then a
// scale by 2**k.
func exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch bits := math.Float64bits(x); {
	case bits == math.Float64bits(math.Inf(-1)):
		return 0
	case bits&^(1<<63) >= math.Float64bits(math.Inf(1)): // NaN or +Inf
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even; out of int32 range is MinInt32.
	k := math.RoundToEven(x * log2e)
	if k < math.MinInt32 {
		k = math.MinInt32
	}
	e := int32(k)
	x = math.FMA(-k, ln2U, x)
	x = math.FMA(-k, ln2L, x)
	x *= 0.0625
	p := math.FMA(2.4801587301587301587e-5, x, 1.9841269841269841270e-4)
	p = math.FMA(p, x, 1.3888888888888888889e-3)
	p = math.FMA(p, x, 8.3333333333333333333e-3)
	p = math.FMA(p, x, 4.1666666666666666667e-2)
	p = math.FMA(p, x, 1.6666666666666666667e-1)
	p = math.FMA(p, x, 0.5)
	x *= math.FMA(p, x, 1.0)
	x *= x + 2
	x *= x + 2
	x *= x + 2
	x = math.FMA(x, x+2, 1)
	// Scale by 2**e, through a subnormal step when the biased exponent
	// is not positive.
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
