// Package stats is the statistics substrate for the analysis pipeline:
// exact empirical distributions (CDFs, quantiles), streaming quantile
// estimation for datasets too large to hold in memory, histograms, and
// time-binned series used by the figure generators.
package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by queries against a distribution with no samples.
var ErrEmpty = errors.New("stats: empty distribution")

// Dist accumulates float64 samples and answers exact empirical-distribution
// queries. The zero value is ready to use.
type Dist struct {
	samples []float64
	sorted  bool
	sum     float64
	sumSq   float64
	// spans, when non-empty, stand in for the sample history: slabs of
	// ascending IEEE-754 little-endian sample bits still in serialized
	// form, aliasing the buffers they were decoded from. While spans are
	// pending, samples holds only the overlay of values added since
	// decode, so absorbing a delta costs O(delta) regardless of history
	// size. A distribution decoded from a temporal-index node carries one
	// span; a window composed from several nodes carries one per node.
	// Counting queries (CDF, N, Min, Max) and order statistics (Quantile)
	// answer across the spans and the sorted overlay without copying;
	// only a merge or re-encode materializes. This keeps index-composed
	// windows, whose whole point is to not touch every sample per query,
	// from paying a merge they don't need.
	spans [][]byte
}

// materialize merges the pending spans and the overlay into the owned
// sample buffer. Span bits with an all-ones exponent (NaN or ±Inf —
// values Add would have rejected) fail the decode here, on first touch,
// rather than up front for distributions that are never read.
func (d *Dist) materialize() error {
	if len(d.spans) == 0 {
		return nil
	}
	if len(d.spans) == 1 {
		raw, ov := d.spans[0], d.samples
		d.spans = nil
		if !d.sorted {
			sort.Float64s(ov)
		}
		n, m := len(raw)/8, len(ov)
		total := n + m
		// Headroom beyond the merged length lets a later delta merge fold a
		// small appended tail in place instead of reallocating and copying
		// the whole buffer (see Dist.mergeSorted).
		out := make([]float64, total, total+total/8+64)
		i, j := 0, 0
		for k := range out {
			if i < n {
				bits := binary.LittleEndian.Uint64(raw[8*i:])
				if bits&0x7FF0000000000000 == 0x7FF0000000000000 {
					return fmt.Errorf("stats: invalid dist sample %v in state", math.Float64frombits(bits))
				}
				if v := math.Float64frombits(bits); j >= m || v <= ov[j] {
					out[k] = v
					i++
					continue
				}
			}
			out[k] = ov[j]
			j++
		}
		d.samples = out
		d.sorted = true
		return nil
	}
	// Multiple spans: decode every slab, then combine the sorted runs by
	// a tournament of linear two-way merges — O(n log k), never a re-sort
	// of the union.
	runs := make([][]float64, 0, len(d.spans)+1)
	for _, s := range d.spans {
		run := make([]float64, len(s)/8)
		for i := range run {
			bits := binary.LittleEndian.Uint64(s[8*i:])
			if bits&0x7FF0000000000000 == 0x7FF0000000000000 {
				return fmt.Errorf("stats: invalid dist sample %v in state", math.Float64frombits(bits))
			}
			run[i] = math.Float64frombits(bits)
		}
		runs = append(runs, run)
	}
	if !d.sorted {
		sort.Float64s(d.samples)
	}
	if len(d.samples) > 0 {
		runs = append(runs, d.samples)
	}
	d.spans = nil
	for len(runs) > 1 {
		next := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				next = append(next, runs[i])
				break
			}
			next = append(next, mergeTwoSorted(runs[i], runs[i+1]))
		}
		runs = next
	}
	d.samples = runs[0]
	d.sorted = true
	return nil
}

// spanAt returns the k-th sample of one span slab.
func spanAt(s []byte, k int) (float64, error) {
	bits := binary.LittleEndian.Uint64(s[8*k:])
	if bits&0x7FF0000000000000 == 0x7FF0000000000000 {
		return 0, fmt.Errorf("stats: invalid dist sample %v in state", math.Float64frombits(bits))
	}
	return math.Float64frombits(bits), nil
}

// Add appends one sample. NaN and Inf samples are rejected. With spans
// pending, the sample lands in the overlay and the history stays
// serialized.
func (d *Dist) Add(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("stats: invalid sample %v", v)
	}
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
	d.sumSq += v * v
	return nil
}

// AddAll appends many samples, stopping at the first invalid one.
func (d *Dist) AddAll(vs ...float64) error { return d.AddBulk(vs) }

// Clone returns an independent copy: no later mutation of either side
// — adds, merges, lazy materialization — can touch the other. A
// pending span slab is copied too, so the clone never aliases a
// decoded buffer whose owner may keep mutating.
func (d *Dist) Clone() *Dist {
	c := &Dist{sorted: d.sorted, sum: d.sum, sumSq: d.sumSq}
	if d.samples != nil {
		c.samples = append(make([]float64, 0, len(d.samples)), d.samples...)
	}
	if d.spans != nil {
		c.spans = make([][]byte, len(d.spans))
		for i, s := range d.spans {
			c.spans[i] = append(make([]byte, 0, len(s)), s...)
		}
	}
	return c
}

// AddBulk appends a batch of samples in order — the batch-kernel entry
// point. Behaviour matches calling Add per value (the valid prefix
// before the first invalid sample is appended, then the error), but
// the buffer grows once per batch instead of once per value.
func (d *Dist) AddBulk(vs []float64) error {
	bad := -1
	for k, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = k
			break
		}
	}
	take := vs
	if bad >= 0 {
		take = vs[:bad]
	}
	if len(take) > 0 {
		d.samples = append(d.samples, take...)
		d.sorted = false
		for _, v := range take {
			d.sum += v
			d.sumSq += v * v
		}
	}
	if bad >= 0 {
		return fmt.Errorf("stats: invalid sample %v", vs[bad])
	}
	return nil
}

// N returns the number of samples.
func (d *Dist) N() int {
	n := len(d.samples)
	for _, s := range d.spans {
		n += len(s) / 8
	}
	return n
}

// Mean returns the arithmetic mean.
func (d *Dist) Mean() (float64, error) {
	if d.N() == 0 {
		return 0, ErrEmpty
	}
	return d.sum / float64(d.N()), nil
}

// StdDev returns the population standard deviation.
func (d *Dist) StdDev() (float64, error) {
	n := float64(d.N())
	if n == 0 {
		return 0, ErrEmpty
	}
	mean := d.sum / n
	variance := d.sumSq/n - mean*mean
	if variance < 0 { // numerical noise
		variance = 0
	}
	return math.Sqrt(variance), nil
}

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Min returns the smallest sample.
func (d *Dist) Min() (float64, error) {
	if d.N() == 0 {
		return 0, ErrEmpty
	}
	d.ensureSorted()
	best, have := 0.0, false
	if len(d.samples) > 0 {
		best, have = d.samples[0], true
	}
	for _, s := range d.spans {
		if len(s) == 0 {
			continue
		}
		v, err := spanAt(s, 0)
		if err != nil {
			return 0, err
		}
		if !have || v < best {
			best, have = v, true
		}
	}
	return best, nil
}

// Max returns the largest sample.
func (d *Dist) Max() (float64, error) {
	if d.N() == 0 {
		return 0, ErrEmpty
	}
	d.ensureSorted()
	best, have := 0.0, false
	if m := len(d.samples); m > 0 {
		best, have = d.samples[m-1], true
	}
	for _, s := range d.spans {
		if len(s) == 0 {
			continue
		}
		v, err := spanAt(s, len(s)/8-1)
		if err != nil {
			return 0, err
		}
		if !have || v > best {
			best, have = v, true
		}
	}
	return best, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics (type-7, the common default).
func (d *Dist) Quantile(q float64) (float64, error) { return d.quantile(q, nil) }

// A Bracket bounds an order statistic: the k-th smallest sample
// (0-based) is known to lie in (lo, hi]; either bound may be infinite.
type Bracket func(k int) (lo, hi float64)

// QuantileBracketed is Quantile for a caller that already knows roughly
// where each order statistic lies — the temporal index brackets a rank
// to one bin of its composed curve grid. Over pending spans the
// selection then starts from the bracket instead of the whole value
// range and never sorts the overlay: it is filtered to the bracket in
// one pass. The bracket is a hint, not trusted: one that does not hold
// the rank is ignored, so the answer always equals Quantile's.
func (d *Dist) QuantileBracketed(q float64, b Bracket) (float64, error) { return d.quantile(q, b) }

func (d *Dist) quantile(q float64, b Bracket) (float64, error) {
	n := d.N()
	if n == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	if n == 1 {
		return d.orderStat(0, b)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	vlo, err := d.orderStat(lo, b)
	if err != nil {
		return 0, err
	}
	if lo == hi {
		return vlo, nil
	}
	vhi, err := d.orderStat(hi, b)
	if err != nil {
		return 0, err
	}
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac, nil
}

// orderStat returns the k-th smallest sample. Pending spans select in
// place (selectRuns) — no order statistic materializes.
func (d *Dist) orderStat(k int, b Bracket) (float64, error) {
	if len(d.spans) == 0 {
		d.ensureSorted()
		return d.samples[k], nil
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	if b != nil {
		lo, hi = b(k)
	}
	return d.selectRuns(k, lo, hi)
}

// floatKey maps a finite float64 to a uint64 whose unsigned order is
// the floats' numeric order, so a value bisection can halve the key
// range; keyFloat is its inverse. Every key between two finite floats'
// keys is itself a finite float's.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// spanCountAtMost returns how many of the slab's samples are <= x,
// searching only the index range [lo, hi] the caller has already
// bracketed the answer into.
func spanCountAtMost(s []byte, lo, hi int, x float64) (int, error) {
	var err error
	idx := lo + sort.Search(hi-lo, func(i int) bool {
		v, e := spanAt(s, lo+i)
		if e != nil {
			err = e
			return true
		}
		return v > x
	})
	return idx, err
}

// selectRuns returns the k-th smallest element of the multiset formed
// by every pending span slab and the overlay — the order statistic a
// materialize-then-index would return — without decoding or merging the
// runs. It bisects the value range: each probe value counts the samples
// at or below it by one binary search per run, and every probe narrows
// each run's candidate index range, so the whole selection reads
// O(runs · log n) samples however many the runs hold. (lo, hi] is the
// caller's bracket for the answer, infinite bounds for none: it seeds
// the candidate ranges, and lets an unsorted overlay be filtered to its
// few candidates instead of sorted. Only the samples a selection reads
// are validated; a NaN or Inf among them fails the query like
// materialize would.
func (d *Dist) selectRuns(k int, lo, hi float64) (float64, error) {
	bracketed := !math.IsInf(lo, -1) || !math.IsInf(hi, 1)
	// The overlay's candidates, ascending, and how many overlay samples
	// sort below them.
	var cand []float64
	below := 0
	if bracketed && !d.sorted {
		for _, v := range d.samples {
			if v <= lo {
				below++
			} else if v <= hi {
				cand = append(cand, v)
			}
		}
		sort.Float64s(cand)
	} else {
		d.ensureSorted()
		below = sort.Search(len(d.samples), func(i int) bool { return d.samples[i] > lo })
		cand = d.samples[below:sort.Search(len(d.samples), func(i int) bool { return d.samples[i] > hi })]
	}

	// Span i holds from[i] samples known to sort before the answer and
	// to[i] known to sort at or before it; the value range bisected is
	// the one the candidates in between span.
	nr := len(d.spans)
	idx := make([]int, 3*nr)
	from, to, at := idx[:nr], idx[nr:2*nr], idx[2*nr:]
	var kLo, kHi uint64
	have := false
	widen := func(first, last float64) {
		f, l := floatKey(first), floatKey(last)
		if !have || f < kLo {
			kLo = f
		}
		if !have || l > kHi {
			kHi = l
		}
		have = true
	}
	before, upTo := below, below+len(cand)
	for i, s := range d.spans {
		var err error
		if to[i] = len(s) / 8; bracketed {
			if from[i], err = spanCountAtMost(s, 0, to[i], lo); err != nil {
				return 0, err
			}
			if to[i], err = spanCountAtMost(s, from[i], to[i], hi); err != nil {
				return 0, err
			}
		}
		before += from[i]
		upTo += to[i]
		if from[i] == to[i] {
			continue
		}
		first, err := spanAt(s, from[i])
		if err != nil {
			return 0, err
		}
		last, err := spanAt(s, to[i]-1)
		if err != nil {
			return 0, err
		}
		widen(first, last)
	}
	if k < before || k >= upTo {
		if bracketed { // the hint was wrong; select without it
			return d.selectRuns(k, math.Inf(-1), math.Inf(1))
		}
		return 0, fmt.Errorf("stats: rank %d outside %d samples", k, upTo)
	}
	if len(cand) > 0 {
		widen(cand[0], cand[len(cand)-1])
	}
	cFrom, cTo := 0, len(cand)
	for kLo < kHi {
		mid := kLo + (kHi-kLo)/2
		x := keyFloat(mid)
		cAt := cFrom + sort.Search(cTo-cFrom, func(j int) bool { return cand[cFrom+j] > x })
		total := below + cAt
		for i, s := range d.spans {
			c, err := spanCountAtMost(s, from[i], to[i], x)
			if err != nil {
				return 0, err
			}
			at[i] = c
			total += c
		}
		if total > k {
			kHi, cTo = mid, cAt
			copy(to, at)
		} else {
			kLo, cFrom = mid+1, cAt
			copy(from, at)
		}
	}
	// Every sample left in a candidate range equals the answer; return
	// one as stored. None left means a slab was not ascending.
	for i, s := range d.spans {
		if from[i] < to[i] {
			return spanAt(s, from[i])
		}
	}
	if cFrom < cTo {
		return cand[cFrom], nil
	}
	return 0, fmt.Errorf("stats: dist state slab is not ascending")
}

// Median returns the 0.5-quantile.
func (d *Dist) Median() (float64, error) { return d.Quantile(0.5) }

// CDF returns the empirical probability P(X <= x). Pending spans are
// counted in place by per-slab binary search — a CDF curve over an
// index-composed window never merges or copies the union buffer.
func (d *Dist) CDF(x float64) (float64, error) {
	if d.N() == 0 {
		return 0, ErrEmpty
	}
	d.ensureSorted()
	// Count of samples <= x == index of the first sample > x.
	y := math.Nextafter(x, math.Inf(1))
	idx := sort.SearchFloat64s(d.samples, y)
	for _, s := range d.spans {
		j, err := spanCountAtMost(s, 0, len(s)/8, x)
		if err != nil {
			return 0, err
		}
		idx += j
	}
	return float64(idx) / float64(d.N()), nil
}

// CDFPoint is one (x, P(X<=x)) pair of an empirical CDF curve.
type CDFPoint struct {
	X float64 `json:"x"`
	P float64 `json:"p"`
}

// Curve samples the empirical CDF at the given x values, producing the
// series a figure plots. An ascending grid over pending spans is
// answered by one forward sweep per run — the whole curve costs
// O(samples + runs·grid) sequential reads, instead of per-point binary
// searches re-probing every run (the difference between an
// index-composed window rendering in microseconds and in milliseconds).
func (d *Dist) Curve(xs []float64) ([]CDFPoint, error) {
	if d.N() == 0 {
		return nil, ErrEmpty
	}
	if len(d.spans) > 0 && sort.Float64sAreSorted(xs) {
		return d.curveSwept(xs)
	}
	out := make([]CDFPoint, 0, len(xs))
	for _, x := range xs {
		p, err := d.CDF(x)
		if err != nil {
			return nil, err
		}
		out = append(out, CDFPoint{X: x, P: p})
	}
	return out, nil
}

// curveSwept evaluates an ascending grid by advancing one cursor per
// pending run. Counts match per-point CDF calls exactly; only the
// access pattern differs.
func (d *Dist) curveSwept(xs []float64) ([]CDFPoint, error) {
	d.ensureSorted()
	counts := make([]int, len(xs))
	sweep := func(at func(int) (float64, error), n int) error {
		i := 0
		var v float64
		if n > 0 {
			var err error
			if v, err = at(0); err != nil {
				return err
			}
		}
		for k, x := range xs {
			y := math.Nextafter(x, math.Inf(1))
			for i < n && v < y {
				i++
				if i < n {
					var err error
					if v, err = at(i); err != nil {
						return err
					}
				}
			}
			counts[k] += i
		}
		return nil
	}
	if err := sweep(func(i int) (float64, error) { return d.samples[i], nil }, len(d.samples)); err != nil {
		return nil, err
	}
	for _, s := range d.spans {
		if err := sweep(func(i int) (float64, error) { return spanAt(s, i) }, len(s)/8); err != nil {
			return nil, err
		}
	}
	n := float64(d.N())
	out := make([]CDFPoint, 0, len(xs))
	for k, x := range xs {
		out = append(out, CDFPoint{X: x, P: float64(counts[k]) / n})
	}
	return out, nil
}

// Summary bundles the descriptive statistics reported for a distribution.
type Summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
}

// Summarize computes a Summary of the distribution.
func (d *Dist) Summarize() (Summary, error) {
	if d.N() == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: d.N()}
	var err error
	if s.Min, err = d.Min(); err != nil {
		return Summary{}, err
	}
	if s.P25, err = d.Quantile(0.25); err != nil {
		return Summary{}, err
	}
	if s.Median, err = d.Median(); err != nil {
		return Summary{}, err
	}
	if s.P75, err = d.Quantile(0.75); err != nil {
		return Summary{}, err
	}
	if s.P95, err = d.Quantile(0.95); err != nil {
		return Summary{}, err
	}
	if s.Max, err = d.Max(); err != nil {
		return Summary{}, err
	}
	if s.Mean, err = d.Mean(); err != nil {
		return Summary{}, err
	}
	if s.StdDev, err = d.StdDev(); err != nil {
		return Summary{}, err
	}
	return s, nil
}
