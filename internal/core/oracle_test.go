package core

import (
	"errors"
	"time"

	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/stats"
)

// The row oracle: the sample-at-a-time fold every suite pass had before
// ObserveBlock became the only fold production code reaches. It lives
// in test files because it is a reference, not a path — each Observe
// states in the plainest form what its pass accumulates, and
// TestScanStoreMatchesRowOracle holds the block kernels (over a store
// and over results.Memory) to it byte for byte: Suite.StateDump, every
// figure's lines and CSVs, the KS result.

// Source is anything the oracle can stream samples from: a
// results.Store, a results.Memory, a results.Reader.
type Source interface {
	// ForEach calls fn for every sample in storage order. It stops at the
	// first error and returns it.
	ForEach(fn func(results.Sample) error) error
}

// RowPass is a Pass that also folds one sample at a time. Observe must
// fold exactly the state ObserveBlock folds for the same rows in the
// same order.
type RowPass interface {
	Pass
	Observe(s results.Sample) error
}

// RunPasses streams src once, feeding every sample to each pass in
// order.
func RunPasses(src Source, passes ...RowPass) error {
	if src == nil {
		return errors.New("analysis: nil source")
	}
	return src.ForEach(func(s results.Sample) error {
		for _, p := range passes {
			if err := p.Observe(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// RowOracle folds src row by row through a fresh suite — all three
// passes in one walk — and returns it before any report runs.
func RowOracle(src Source, idx *Index, start time.Time, binWidth time.Duration) (*Suite, error) {
	s, err := NewSuite(idx, start, binWidth)
	if err != nil {
		return nil, err
	}
	return s, RunPasses(src, s.Proximity, s.MinRTT, s.Nearest)
}

// Select restricts a fresh suite to the passes ps names, as a
// pass-selective scan does, and returns it.
func (s *Suite) Select(ps PassSet) *Suite {
	s.sel = ps
	return s
}

// StateDump spells out every accumulator of a whole suite — the two
// snapshot passes as EncodeState writes them, then the nearest-region
// buffer, which is never persisted: per probe its rows in file order
// with its best row (region by name, so neither interning order nor
// chunk boundaries show), and per provider the distribution of its
// buffered RTTs in file order (see appendDist) with the lost counts of
// its regions — so two folds can be held to the same state, not just
// the same figures.
func (s *Suite) StateDump() ([]byte, error) {
	b, err := s.EncodeState()
	if err != nil {
		return nil, err
	}
	n := s.Nearest
	byProbe := make([][]int, len(n.best)) // each probe's rows as (chunk, row) pairs, in file order
	for c := range n.chunks {
		for i, probe := range n.chunks[c].probe {
			byProbe[probe] = append(byProbe[probe], c, i)
		}
	}
	// nanos finds row i's run by a linear walk, not the pass's search.
	nanos := func(c *rowChunk, i int) int64 {
		k := 0
		for int(c.times[k].end) <= i {
			k++
		}
		return c.times[k].nanos
	}
	for id, rows := range byProbe {
		if len(rows) == 0 {
			continue
		}
		b = snap.AppendVarint(b, int64(id))
		b = snap.AppendUvarint(b, uint64(len(rows)/2))
		for k := 0; k < len(rows); k += 2 {
			c := &n.chunks[rows[k]]
			i := rows[k+1]
			b = snap.AppendString(b, n.regions[c.region[i]])
			b = snap.AppendFloat(b, c.rtt[i])
			b = snap.AppendVarint(b, nanos(c, i))
		}
		best := n.best[id]
		b = snap.AppendString(b, n.regions[best.region])
		b = snap.AppendFloat(b, best.rtt)
	}
	rtts, lost := map[string][]float64{}, map[string]int{}
	for id, region := range n.regions {
		if provider, ok := providerOf(region); ok {
			lost[provider] += n.lost[id]
		}
	}
	for c := range n.chunks {
		for i, id := range n.chunks[c].region {
			if provider, ok := providerOf(n.regions[id]); ok {
				rtts[provider] = append(rtts[provider], n.chunks[c].rtt[i])
			}
		}
	}
	for _, provider := range sortedKeys(lost) {
		b = snap.AppendString(b, provider)
		d, err := stats.FromSamples(rtts[provider])
		if err != nil {
			return nil, err
		}
		if b, err = appendDist(b, d); err != nil {
			return nil, err
		}
		b = snap.AppendUvarint(b, uint64(lost[provider]))
	}
	return b, nil
}

// appendDist spells a distribution out through its public queries — N,
// the Mean and StdDev bits, and the quantile at every rank's position
// k/(n-1), i.e. each order statistic — which is every value a report
// built on it can observe. The quantiles come from a copy made by
// replaying the samples into an empty Dist, so the dump never sorts the
// suite's own buffer.
func appendDist(b []byte, d *stats.Dist) ([]byte, error) {
	n := d.N()
	b = snap.AppendUvarint(b, uint64(n))
	if n == 0 {
		return b, nil
	}
	mean, err := d.Mean()
	if err != nil {
		return nil, err
	}
	sd, err := d.StdDev()
	if err != nil {
		return nil, err
	}
	b = snap.AppendFloat(snap.AppendFloat(b, mean), sd)
	var c stats.Dist
	if err := c.Merge(d); err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		q := 0.0
		if n > 1 {
			q = float64(k) / float64(n-1)
		}
		v, err := c.Quantile(q)
		if err != nil {
			return nil, err
		}
		b = snap.AppendFloat(b, v)
	}
	return b, nil
}

// Observe implements RowPass.
func (p *ProximityPass) Observe(s results.Sample) error {
	if s.Lost {
		return nil
	}
	country, ok := p.idx.Country(s.ProbeID)
	if !ok {
		return nil // privileged or unknown probe: filtered
	}
	a := p.byCountry[country]
	if a == nil {
		a = &proximityAcc{min: s.RTTms}
		p.byCountry[country] = a
	} else if s.RTTms < a.min {
		a.min = s.RTTms
	}
	a.samples++
	return nil
}

// Observe implements RowPass.
func (p *MinRTTPass) Observe(s results.Sample) error {
	if s.Lost || !p.idx.Known(s.ProbeID) {
		return nil
	}
	if cur, ok := p.mins[s.ProbeID]; !ok || s.RTTms < cur {
		p.mins[s.ProbeID] = s.RTTms
	}
	return nil
}

// Observe implements RowPass.
func (p *NearestPass) Observe(s results.Sample) error {
	if !p.idx.Known(s.ProbeID) {
		return nil
	}
	id, err := p.intern(s.Region)
	if err != nil {
		return err
	}
	if s.Lost {
		p.lost[id]++
		return nil
	}
	// Rows join the last chunk until a report has read it.
	last := len(p.chunks) - 1
	if last < 0 || (p.full != nil && p.full.chunks > last) || (p.weeks != nil && p.weeks.chunks > last) {
		p.chunks = append(p.chunks, rowChunk{})
		last++
	}
	p.chunks[last].add(s.ProbeID, id, s.RTTms, s.Time.UnixNano())
	p.best[s.ProbeID].offer(id, s.RTTms)
	return nil
}
