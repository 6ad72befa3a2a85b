package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/geo"
	"repro/internal/scan"
	"repro/internal/stats"
)

// Pass is the streaming-aggregate contract shared with the parallel
// scanner: ObserveBlock every decoded block, Merge a later group's
// partial state, and (per concrete type) Report the finished analysis.
// Every figure's analysis is a Pass, so one scan of the dataset can feed
// all of them at once.
type Pass = scan.Pass

// sortedKeys returns m's keys ascending, for deterministic report-time
// iteration and encoding.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// mergeTypeError is the uniform complaint for a Merge called with a
// different pass type.
func mergeTypeError(want string, got Pass) error {
	return fmt.Errorf("analysis: cannot merge %T into %s", got, want)
}

// ProximityPass accumulates Figure 4: per-country minimum RTT.
type ProximityPass struct {
	idx       *Index
	byCountry map[string]*proximityAcc
}

type proximityAcc struct {
	min     float64
	samples int
}

// NewProximityPass builds the pass.
func NewProximityPass(idx *Index) *ProximityPass {
	return &ProximityPass{idx: idx, byCountry: make(map[string]*proximityAcc)}
}

// Merge implements Pass. Minima and counts merge exactly, so the result
// is independent of the sharding.
func (p *ProximityPass) Merge(other Pass) error {
	o, ok := other.(*ProximityPass)
	if !ok {
		return mergeTypeError("ProximityPass", other)
	}
	for country, oa := range o.byCountry {
		a := p.byCountry[country]
		if a == nil {
			p.byCountry[country] = oa
			continue
		}
		a.min, a.samples = min(a.min, oa.min), a.samples+oa.samples
	}
	return nil
}

// Report finishes the analysis.
func (p *ProximityPass) Report() (*ProximityReport, error) {
	if len(p.byCountry) == 0 {
		return nil, errors.New("analysis: no delivered samples")
	}
	rep := &ProximityReport{Rows: make([]ProximityRow, 0, len(p.byCountry))}
	for iso, a := range p.byCountry {
		row := ProximityRow{
			Country:  iso,
			Name:     p.idx.CountryName(iso),
			MinRTTms: a.min,
			Band:     BandOf(a.min),
			Samples:  a.samples,
		}
		if c, ok := p.idx.Countries().Lookup(iso); ok {
			row.Continent = c.Continent
		}
		rep.Rows = append(rep.Rows, row)
	}
	slices.SortFunc(rep.Rows, func(a, b ProximityRow) int {
		return cmp.Or(cmp.Compare(a.MinRTTms, b.MinRTTms), strings.Compare(a.Country, b.Country))
	})
	return rep, nil
}

// MinRTTPass accumulates Figure 5: each probe's minimum observed RTT.
type MinRTTPass struct {
	idx  *Index
	mins map[int]float64
}

// NewMinRTTPass builds the pass.
func NewMinRTTPass(idx *Index) *MinRTTPass {
	return &MinRTTPass{idx: idx, mins: make(map[int]float64)}
}

// Merge implements Pass; min-of-mins is exact.
func (p *MinRTTPass) Merge(other Pass) error {
	o, ok := other.(*MinRTTPass)
	if !ok {
		return mergeTypeError("MinRTTPass", other)
	}
	for id, min := range o.mins {
		if cur, ok := p.mins[id]; !ok || min < cur {
			p.mins[id] = min
		}
	}
	return nil
}

// Report finishes the analysis, grouping per-probe minima by continent
// in ascending probe order so the report is deterministic.
func (p *MinRTTPass) Report() (*CDFReport, error) {
	if len(p.mins) == 0 {
		return nil, errors.New("analysis: no delivered samples")
	}
	rep := &CDFReport{byContinent: make(map[geo.Continent]*stats.Dist)}
	for _, probeID := range sortedKeys(p.mins) {
		ct, ok := p.idx.Continent(probeID)
		if !ok {
			continue
		}
		d := rep.byContinent[ct]
		if d == nil {
			d = &stats.Dist{}
			rep.byContinent[ct] = d
		}
		if err := d.Add(p.mins[probeID]); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// providerOf extracts the operator prefix of a "provider/id" region
// address.
func providerOf(region string) (string, bool) {
	provider, _, ok := strings.Cut(region, "/")
	return provider, ok
}

// ProviderPass accumulates the per-provider latency comparison. It keeps
// each provider's delivered RTTs as exact-size chunks, one per observed
// block, in file order, and folds them only when a report asks.
type ProviderPass struct {
	idx        *Index
	byProvider map[string]*providerAcc
	// accs is ObserveBlock's scratch, reused across blocks: each
	// dictionary code's lazily resolved accumulator.
	accs []*providerAcc
}

type providerAcc struct {
	chunks [][]float64 // delivered RTTs, in file order
	fresh  int         // the observed block's delivered rows
	lost   int
}

// NewProviderPass builds the pass.
func NewProviderPass(idx *Index) *ProviderPass {
	return &ProviderPass{idx: idx, byProvider: make(map[string]*providerAcc)}
}

// Merge implements Pass: other's rows follow the receiver's in file
// order, so the receiver adopts other's chunks after its own. other
// must not be used afterwards.
func (p *ProviderPass) Merge(other Pass) error {
	o, ok := other.(*ProviderPass)
	if !ok {
		return mergeTypeError("ProviderPass", other)
	}
	for provider, oa := range o.byProvider {
		a := p.byProvider[provider]
		if a == nil {
			p.byProvider[provider] = oa
			continue
		}
		a.chunks = append(a.chunks, oa.chunks...)
		a.lost += oa.lost
	}
	o.byProvider = nil
	return nil
}

// Report finishes the comparison, one provider's distribution at a time.
func (p *ProviderPass) Report() (*ProviderReport, error) {
	if len(p.byProvider) == 0 {
		return nil, errors.New("core: no samples")
	}
	rep := &ProviderReport{}
	for provider, a := range p.byProvider {
		if len(a.chunks) == 0 {
			continue
		}
		// One exact-size buffer of the chunks in file order: the sums are
		// those of the sequential fold.
		d, err := stats.FromSamples(slices.Concat(a.chunks...))
		if err != nil {
			return nil, err
		}
		sum, err := d.Summarize()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, ProviderRow{
			Provider: provider,
			Summary:  sum,
			Lost:     a.lost,
			LossRate: float64(a.lost) / float64(d.N()+a.lost),
		})
	}
	slices.SortFunc(rep.Rows, func(a, b ProviderRow) int {
		return cmp.Or(cmp.Compare(a.Summary.Median, b.Summary.Median), strings.Compare(a.Provider, b.Provider))
	})
	return rep, nil
}
