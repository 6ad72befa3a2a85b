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

// Config controls the sampling.
type Config struct {
	Start   time.Time     // first sample time
	Rounds  int           // samples per probe
	Spacing time.Duration // time between samples
}

// DefaultConfig samples a week at three-hour spacing.
func DefaultConfig() Config {
	return Config{
		Start:   time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC),
		Rounds:  56,
		Spacing: 3 * time.Hour,
	}
}

// Validate checks the sampling parameters.
func (c Config) Validate() error {
	if c.Start.IsZero() {
		return errors.New("delay: zero start time")
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("delay: non-positive rounds %d", c.Rounds)
	}
	if c.Spacing <= 0 {
		return fmt.Errorf("delay: non-positive spacing %v", c.Spacing)
	}
	return nil
}

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

// WhereIsTheDelay samples every public probe's path to its geographically
// nearest region over the configured window and attributes the mean RTT to
// its components.
func WhereIsTheDelay(p *atlas.Platform, cfg Config) (*Report, error) {
	if p == nil {
		return nil, errors.New("delay: nil platform")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
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
		for i := 0; i < cfg.Rounds; i++ {
			b := path.Sample(cfg.Start.Add(time.Duration(i) * cfg.Spacing))
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
	lines := []string{"group            mean-rtt  propagation  transit  last-mile  bloat  dominant"}
	emit := func(rows []Attribution) {
		for _, a := range rows {
			lines = append(lines, fmt.Sprintf("%-16s %7.1fms  %10.1fms %7.1fms %9.1fms %5.1fms  %s",
				a.Group, a.MeanRTTms, a.PropagationMs, a.TransitMs, a.LastMileMs, a.BloatMs, a.Dominant()))
		}
	}
	emit(r.ByContinent)
	emit(r.ByAccess)
	return lines
}
