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
