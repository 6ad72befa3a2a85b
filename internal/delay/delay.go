// Package delay answers the paper's §4.3 question — "Where is the Delay?"
// — by decomposing cloud-access RTTs into propagation, transit, last-mile,
// and bufferbloat components, aggregated per continent and per access
// class. The paper attributes poor reachability to insufficient
// infrastructure deployment (transit) and to the wireless last mile; this
// analysis quantifies both from the same model that generated the dataset.
package delay

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/atlas"
	"repro/internal/geo"
	"repro/internal/netem"
)

// Attribution is the averaged component decomposition of one probe group.
type Attribution struct {
	Group         string  `json:"group"` // continent name or access class
	Samples       int     `json:"samples"`
	MeanRTTms     float64 `json:"mean_rtt_ms"`
	PropagationMs float64 `json:"propagation_ms"`
	TransitMs     float64 `json:"transit_ms"`
	LastMileMs    float64 `json:"last_mile_ms"`
	BloatMs       float64 `json:"bloat_ms"`
}

// Dominant names the largest component.
func (a Attribution) Dominant() string {
	best, name := a.PropagationMs, "propagation"
	if a.TransitMs > best {
		best, name = a.TransitMs, "transit"
	}
	if a.LastMileMs > best {
		best, name = a.LastMileMs, "last-mile"
	}
	if a.BloatMs > best {
		name = "bufferbloat"
	}
	return name
}

// Report groups attributions by continent and by access class.
type Report struct {
	ByContinent []Attribution `json:"by_continent"`
	ByAccess    []Attribution `json:"by_access"`
}

// The §4.3 sample: each path at 56 instants, a week from 2019-09-01
// 00:00 UTC at three-hour spacing.
const (
	sampleRounds  = 56
	sampleSpacing = 3 * time.Hour
)

var sampleStart = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

type acc struct {
	n                                      int
	rtt, prop, transit, lastMile, bloatSum float64
}

func (a *acc) add(b netem.Breakdown) {
	a.n++
	a.rtt += b.TotalMs
	a.prop += b.PropagationMs
	a.transit += b.TransitMs
	a.lastMile += b.LastMileMs
	a.bloatSum += b.BloatMs
}

func (a *acc) attribution(group string) Attribution {
	n := float64(a.n)
	return Attribution{
		Group:         group,
		Samples:       a.n,
		MeanRTTms:     a.rtt / n,
		PropagationMs: a.prop / n,
		TransitMs:     a.transit / n,
		LastMileMs:    a.lastMile / n,
		BloatMs:       a.bloatSum / n,
	}
}

// Attribute is the attribution of one delivered sample: the fold
// WhereIsTheDelay averages, at n = 1.
func Attribute(group string, b netem.Breakdown) Attribution {
	var a acc
	a.add(b)
	return a.attribution(group)
}

// WhereIsTheDelay samples every public probe's path to its geographically
// nearest region over the §4.3 week and attributes the mean RTT to its
// components.
func WhereIsTheDelay(p *atlas.Platform) (*Report, error) {
	if p == nil {
		return nil, errors.New("delay: nil platform")
	}
	var byContinent [geo.SouthAmerica + 1]acc
	var byAccess [netem.AccessCore + 1]acc
	delivered := 0
	for _, pr := range p.Population.Public() {
		region := p.Catalog.Nearest(pr.Location)
		if region == nil {
			return nil, errors.New("delay: empty catalog")
		}
		path, err := p.Path(pr, region)
		if err != nil {
			return nil, err
		}
		for i := 0; i < sampleRounds; i++ {
			b := path.Sample(sampleStart.Add(time.Duration(i) * sampleSpacing))
			if b.Lost {
				continue
			}
			byContinent[pr.Continent].add(b)
			byAccess[pr.Access].add(b)
			delivered++
		}
	}
	if delivered == 0 {
		return nil, errors.New("delay: no samples")
	}
	rep := &Report{}
	for _, ct := range geo.Continents() {
		if a := byContinent[ct]; a.n > 0 {
			rep.ByContinent = append(rep.ByContinent, a.attribution(ct.String()))
		}
	}
	for _, access := range []netem.Access{netem.AccessWired, netem.AccessWireless, netem.AccessCore} {
		if a := byAccess[access]; a.n > 0 {
			rep.ByAccess = append(rep.ByAccess, a.attribution(access.String()))
		}
	}
	return rep, nil
}

// Format renders the report as figure-ready lines.
func (r *Report) Format() []string {
	return FormatRows(append(append([]Attribution(nil), r.ByContinent...), r.ByAccess...))
}

// FormatRows renders attributions as the table Format prints: a header,
// then one row each.
func FormatRows(rows []Attribution) []string {
	lines := []string{"group            mean-rtt  propagation  transit  last-mile  bloat  dominant"}
	for _, a := range rows {
		lines = append(lines, fmt.Sprintf("%-16s %7.1fms  %10.1fms %7.1fms %9.1fms %5.1fms  %s",
			a.Group, a.MeanRTTms, a.PropagationMs, a.TransitMs, a.LastMileMs, a.BloatMs, a.Dominant()))
	}
	return lines
}
