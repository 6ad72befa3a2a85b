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

// RowOracle folds src row by row through a fresh suite — all four
// passes in one walk — and returns it before any report runs.
func RowOracle(src Source, idx *Index, start time.Time, binWidth time.Duration) (*Suite, error) {
	s, err := NewSuite(idx, start, binWidth)
	if err != nil {
		return nil, err
	}
	return s, RunPasses(src, s.Proximity, s.MinRTT, s.Nearest, s.Provider)
}

// Select restricts a fresh suite to the passes ps names, as a
// pass-selective scan does, and returns it.
func (s *Suite) Select(ps PassSet) *Suite {
	s.sel = ps
	return s
}

// StateDump spells out every accumulator of a whole suite — the two
// snapshot passes as EncodeState writes them, then the passes that are
// never persisted: the nearest-region buffer per probe in file order
// (region by name, so interning order does not show) and each
// provider's distribution (see appendDist) with its loss count — so two
// folds can be held to the same state, not just the same figures.
func (s *Suite) StateDump() ([]byte, error) {
	b, err := s.EncodeState()
	if err != nil {
		return nil, err
	}
	for id := range s.Nearest.probes {
		r := &s.Nearest.probes[id]
		if len(r.rtt) == 0 {
			continue
		}
		b = snap.AppendVarint(b, int64(id))
		b = snap.AppendUvarint(b, uint64(len(r.rtt)))
		for k, rtt := range r.rtt {
			b = snap.AppendString(b, s.Nearest.regions[r.region[k]])
			b = snap.AppendFloat(b, rtt)
		}
		b = snap.AppendUvarint(b, uint64(len(r.nanos)))
		for _, t := range r.nanos {
			b = snap.AppendVarint(b, t)
		}
		b = snap.AppendUvarint(b, uint64(r.best))
	}
	for _, provider := range sortedStrings(s.Provider.byProvider) {
		a := s.Provider.byProvider[provider]
		b = snap.AppendString(b, provider)
		if b, err = appendDist(b, a.dist); err != nil {
			return nil, err
		}
		b = snap.AppendUvarint(b, uint64(a.lost))
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
	if s.Lost {
		return nil
	}
	r := p.rows(s.ProbeID)
	if r == nil {
		return nil
	}
	id, err := p.intern(s.Region)
	if err != nil {
		return err
	}
	r.add(id, s.RTTms, s.Time.UnixNano())
	return nil
}

// Observe implements RowPass.
func (p *ProviderPass) Observe(s results.Sample) error {
	if !p.idx.Known(s.ProbeID) {
		return nil
	}
	provider, ok := providerOf(s.Region)
	if !ok {
		return nil
	}
	a := p.byProvider[provider]
	if a == nil {
		a = &providerAcc{dist: &stats.Dist{}}
		p.byProvider[provider] = a
	}
	if s.Lost {
		a.lost++
		return nil
	}
	return a.dist.Add(s.RTTms)
}
