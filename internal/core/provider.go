package core

import (
	"cmp"
	"errors"
	"slices"
	"strings"

	"repro/internal/stats"
)

// ProviderRow summarizes one cloud operator's reachability over the
// campaign: the per-sample latency distribution of all delivered pings
// toward that provider's regions.
type ProviderRow struct {
	Provider string        `json:"provider"`
	Summary  stats.Summary `json:"summary"`
	Lost     int           `json:"lost"`
	LossRate float64       `json:"loss_rate"`
}

// ProviderReport extends the paper's §4.1 observation — private-backbone
// operators ride straighter paths than public-transit ones — into a
// per-provider latency comparison.
type ProviderReport struct {
	Rows []ProviderRow `json:"rows"` // sorted by median RTT
}

// providerOf extracts the operator prefix of a "provider/id" region
// address.
func providerOf(region string) (string, bool) {
	provider, _, ok := strings.Cut(region, "/")
	return provider, ok
}

// Providers reports the §4.1 table from the buffered rows, which hold
// every delivered RTT of a known probe in file order. Each interned
// region maps to its provider; one walk of the chunks counts each
// provider's rows, then each provider's RTTs are gathered in file order
// into one buffer, reused across providers and sized for the largest,
// which stats.FromSamples adopts: every Summary field is the sequential
// fold's. A provider with only lost rows gets no row.
func (p *NearestPass) Providers() (*ProviderReport, error) {
	type acc struct {
		provider        string
		delivered, lost int
	}
	var accs []acc
	of := make([]int, len(p.regions)) // region id → its provider's acc, -1 for none
	for id, region := range p.regions {
		of[id] = -1
		provider, ok := providerOf(region)
		if !ok {
			continue
		}
		k := slices.IndexFunc(accs, func(a acc) bool { return a.provider == provider })
		if k < 0 {
			k = len(accs)
			accs = append(accs, acc{provider: provider})
		}
		of[id] = k
		accs[k].lost += p.lost[id]
	}
	if len(accs) == 0 {
		return nil, errors.New("core: no samples")
	}
	for _, c := range p.chunks {
		for _, id := range c.region {
			if k := of[id]; k >= 0 {
				accs[k].delivered++
			}
		}
	}
	largest := 0
	for _, a := range accs {
		largest = max(largest, a.delivered)
	}
	buf := make([]float64, 0, largest)
	rep := &ProviderReport{}
	for k, a := range accs {
		if a.delivered == 0 {
			continue
		}
		buf = buf[:0]
		for _, c := range p.chunks {
			for i, id := range c.region {
				if of[id] == k {
					buf = append(buf, c.rtt[i])
				}
			}
		}
		d, err := stats.FromSamples(buf)
		if err != nil {
			return nil, err
		}
		sum, err := d.Summarize()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, ProviderRow{
			Provider: a.provider,
			Summary:  sum,
			Lost:     a.lost,
			LossRate: float64(a.lost) / float64(a.delivered+a.lost),
		})
	}
	slices.SortFunc(rep.Rows, func(a, b ProviderRow) int {
		return cmp.Or(cmp.Compare(a.Summary.Median, b.Summary.Median), strings.Compare(a.Provider, b.Provider))
	})
	return rep, nil
}
