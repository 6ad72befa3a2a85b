package probe

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geo"
	"repro/internal/netem"
)

// GenConfig parameterizes the synthetic probe census.
type GenConfig struct {
	// Seed makes generation reproducible.
	Seed int64
	// Count is the total number of probes (paper: 3200+).
	Count int
	// ContinentShare is the fraction of probes per continent. Shares must
	// sum to ~1. The default skews toward Europe and North America the way
	// the real Atlas deployment does (§4.2: EU+NA hold about 62% of probes).
	ContinentShare map[geo.Continent]float64
	// WirelessFrac and CoreFrac are the fractions of probes on wireless
	// last miles and in privileged core locations.
	WirelessFrac, CoreFrac float64
}

// DefaultGenConfig returns the census matching the paper's Figure 3b
// marginals: 3300 probes, EU+NA-heavy, with enough wireless-tagged probes to
// support the Figure 7 comparison.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:  1,
		Count: 3300,
		ContinentShare: map[geo.Continent]float64{
			geo.Europe:       0.45,
			geo.NorthAmerica: 0.17,
			geo.Asia:         0.17,
			geo.Oceania:      0.06,
			geo.SouthAmerica: 0.07,
			geo.Africa:       0.08,
		},
		WirelessFrac: 0.22,
		CoreFrac:     0.05,
	}
}

// Validate checks the generation parameters.
func (c GenConfig) Validate() error {
	if c.Count <= 0 {
		return fmt.Errorf("probe: count must be positive, got %d", c.Count)
	}
	sum := 0.0
	for ct, share := range c.ContinentShare {
		if ct == geo.ContinentUnknown {
			return fmt.Errorf("probe: share for unknown continent")
		}
		if share < 0 {
			return fmt.Errorf("probe: negative share for %v", ct)
		}
		sum += share
	}
	if sum < 0.99 || sum > 1.01 {
		return fmt.Errorf("probe: continent shares sum to %v, want 1", sum)
	}
	if c.WirelessFrac < 0 || c.CoreFrac < 0 || c.WirelessFrac+c.CoreFrac > 1 {
		return fmt.Errorf("probe: invalid access fractions wireless=%v core=%v", c.WirelessFrac, c.CoreFrac)
	}
	return nil
}

// tierWeight grades how many probes a country attracts relative to others
// on its continent: well-connected countries host far more Atlas probes
// (the real deployment is overwhelmingly concentrated in tier-1 networks).
func tierWeight(t geo.Tier) float64 {
	switch t {
	case geo.Tier1:
		return 40
	case geo.Tier2:
		return 8
	case geo.Tier3:
		return 2
	default:
		return 1
	}
}

// Generate builds a deterministic synthetic population over the country
// database. Every country receives at least one probe, so all 178 of
// geo.World's countries host probes (the paper's census counts 166).
func Generate(db *geo.DB, cfg GenConfig) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if db.Len() == 0 {
		return nil, fmt.Errorf("probe: empty country database")
	}
	if cfg.Count < db.Len() {
		return nil, fmt.Errorf("probe: count %d below country count %d (need full coverage)", cfg.Count, db.Len())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Phase 1: one probe per country (coverage floor).
	quota := make(map[string]int, db.Len())
	for _, c := range db.All() {
		quota[c.ISO2] = 1
	}
	remaining := cfg.Count - db.Len()

	// Phase 2: distribute the remainder by continent share, then within a
	// continent by tier weight.
	continents := geo.Continents()
	for _, ct := range continents {
		share := cfg.ContinentShare[ct]
		n := int(share * float64(remaining))
		countries := db.ByContinent(ct)
		if len(countries) == 0 || n == 0 {
			continue
		}
		total := 0.0
		for _, c := range countries {
			total += tierWeight(c.Tier)
		}
		assigned := 0
		for _, c := range countries {
			k := int(float64(n) * tierWeight(c.Tier) / total)
			quota[c.ISO2] += k
			assigned += k
		}
		// Round-off remainder goes to the highest-weight countries.
		sorted := append([]*geo.Country(nil), countries...)
		sort.Slice(sorted, func(i, j int) bool {
			wi, wj := tierWeight(sorted[i].Tier), tierWeight(sorted[j].Tier)
			if wi != wj {
				return wi > wj
			}
			return sorted[i].ISO2 < sorted[j].ISO2
		})
		for i := 0; assigned < n; i++ {
			quota[sorted[i%len(sorted)].ISO2]++
			assigned++
		}
	}

	var probes []*Probe
	id := 0
	for _, c := range db.All() {
		for i := 0; i < quota[c.ISO2]; i++ {
			id++
			probes = append(probes, synthesize(rng, id, c))
		}
	}
	// Top up rounding shortfall with extra probes in tier-1 countries.
	tier1 := db.All()
	for i := 0; len(probes) < cfg.Count; i++ {
		c := tier1[i%len(tier1)]
		if c.Tier != geo.Tier1 {
			continue
		}
		id++
		probes = append(probes, synthesize(rng, id, c))
	}

	// Assign environments and access links.
	for _, p := range probes {
		r := rng.Float64()
		switch {
		case r < cfg.CoreFrac:
			p.Env = EnvCore
			p.Access = netem.AccessCore
			p.Tags = append(p.Tags, PrivilegedTags[rng.Intn(len(PrivilegedTags))])
		case r < cfg.CoreFrac+cfg.WirelessFrac:
			p.Env = EnvHome
			p.Access = netem.AccessWireless
			p.Tags = append(p.Tags, "home", WirelessTags[rng.Intn(len(WirelessTags))])
		default:
			if rng.Float64() < 0.25 {
				p.Env = EnvAccess
				p.Tags = append(p.Tags, "office")
			} else {
				p.Env = EnvHome
				p.Tags = append(p.Tags, "home")
			}
			p.Access = netem.AccessWired
			p.Tags = append(p.Tags, WiredTags[rng.Intn(len(WiredTags))])
		}
	}
	return NewPopulation(probes)
}

// synthesize creates a probe near the country centroid. Placement jitter
// shrinks for small countries (heuristically by tier, since the database
// stores no area).
func synthesize(rng *rand.Rand, id int, c *geo.Country) *Probe {
	spread := 1.5 // degrees
	loc := geo.Point{
		Lat: clampLat(c.Centroid.Lat + rng.NormFloat64()*spread),
		Lon: wrapLon(c.Centroid.Lon + rng.NormFloat64()*spread),
	}
	return &Probe{
		ID:        id,
		Country:   c.ISO2,
		Continent: c.Continent,
		Tier:      c.Tier,
		Location:  loc,
		Tags:      []string{"system-ipv4-works"},
	}
}

func clampLat(lat float64) float64 {
	if lat > 89 {
		return 89
	}
	if lat < -89 {
		return -89
	}
	return lat
}

func wrapLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}
