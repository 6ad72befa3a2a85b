package stats

import (
	"errors"
	"math"
	"sort"
)

// KSResult is the outcome of a two-sample Kolmogorov-Smirnov test.
type KSResult struct {
	// D is the KS statistic: the supremum distance between the two
	// empirical CDFs.
	D float64
	// P is the approximate p-value for the null hypothesis that both
	// samples come from the same distribution (Numerical-Recipes
	// asymptotic approximation).
	P float64
}

// KolmogorovSmirnov runs the two-sample KS test on two distributions. The
// analysis uses it to confirm that the wired and wireless RTT populations
// of Figure 7 are statistically distinct rather than a binning artifact.
func KolmogorovSmirnov(a, b *Dist) (KSResult, error) {
	if a == nil || b == nil {
		return KSResult{}, errors.New("stats: nil distribution")
	}
	n1, n2 := a.N(), b.N()
	if n1 == 0 || n2 == 0 {
		return KSResult{}, ErrEmpty
	}
	s1 := append([]float64(nil), a.samples...)
	s2 := append([]float64(nil), b.samples...)
	sort.Float64s(s1)
	sort.Float64s(s2)

	var d float64
	i, j := 0, 0
	for i < n1 && j < n2 {
		v1, v2 := s1[i], s2[j]
		if v1 <= v2 {
			i++
		}
		if v2 <= v1 {
			j++
		}
		f1 := float64(i) / float64(n1)
		f2 := float64(j) / float64(n2)
		if diff := math.Abs(f1 - f2); diff > d {
			d = diff
		}
	}

	ne := float64(n1) * float64(n2) / float64(n1+n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{D: d, P: ksProb(lambda)}, nil
}

// ksProb is the Kolmogorov distribution tail Q_KS(lambda).
func ksProb(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const eps1, eps2 = 1e-3, 1e-8
	sum, fac, prevTerm := 0.0, 2.0, 0.0
	a2 := -2 * lambda * lambda
	for k := 1; k <= 100; k++ {
		term := fac * math.Exp(a2*float64(k)*float64(k))
		sum += term
		if math.Abs(term) <= eps1*prevTerm || math.Abs(term) <= eps2*sum {
			if sum < 0 {
				return 0
			}
			if sum > 1 {
				return 1
			}
			return sum
		}
		fac = -fac
		prevTerm = math.Abs(term)
	}
	return 1 // did not converge: be conservative
}
