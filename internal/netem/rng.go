package netem

import "math"

// rng is a small splitmix64-based deterministic generator. Every latency
// sample is keyed by (seed, path, time) so that re-running a campaign with
// the same seed reproduces the dataset bit-for-bit, which the paper's
// several-month methodology needs for regression testing.
type rng struct{ state uint64 }

// newRNG derives a generator from a sequence of key words.
func newRNG(keys ...uint64) *rng {
	r := &rng{state: 0x9e3779b97f4a7c15}
	for _, k := range keys {
		r.state ^= k
		r.next()
	}
	return r
}

// hash64 mixes a string into a 64-bit key (FNV-1a).
func hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform sample in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// inRange returns a uniform sample in [lo, hi).
func (r *rng) inRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.float64()
}

// expMs returns an exponentially distributed sample with the given mean.
func (r *rng) expMs(mean float64) float64 {
	u := r.float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// lognormal returns exp(N(mu, sigma)).
func (r *rng) lognormal(mu, sigma float64) float64 {
	// Box-Muller.
	u1 := r.float64()
	u2 := r.float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return math.Exp(mu + sigma*z)
}

// lognormalAtLeastMedian reports, without advancing r, whether the
// lognormal r draws next is at least exp(mu): its Box–Muller cosine
// cos(2πu2) is positive beyond doubt for u2 in [0, 0.24] ∪ [0.76, 1).
func (r rng) lognormalAtLeastMedian() bool {
	r.state += 0x9e3779b97f4a7c15 // step past u1 without mixing it
	u2 := r.float64()
	return u2 <= 0.24 || u2 >= 0.76
}
