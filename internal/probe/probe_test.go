package probe

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/netem"
)

func genDefault(t *testing.T) *Population {
	t.Helper()
	pop, err := Generate(geo.World(), DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestGenerateMatchesPaperCensus(t *testing.T) {
	pop := genDefault(t)
	// §4.1: "3200+ RIPE Atlas probes distributed in 166 countries".
	if pop.Len() < 3200 {
		t.Errorf("population = %d, want >= 3200", pop.Len())
	}
	if got := len(pop.Countries()); got < 166 {
		t.Errorf("countries = %d, want >= 166", got)
	}
	// §4.2: EU+NA hold roughly 62%% of probes (80%% of them = 50%% of total).
	counts := pop.CountByContinent()
	total := 0
	for _, n := range counts {
		total += n
	}
	euna := float64(counts[geo.Europe]+counts[geo.NorthAmerica]) / float64(total)
	if euna < 0.5 || euna > 0.75 {
		t.Errorf("EU+NA share = %.2f, want 0.50-0.75", euna)
	}
	for _, ct := range geo.Continents() {
		if counts[ct] == 0 {
			t.Errorf("no public probes in %v", ct)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genDefault(t)
	b := genDefault(t)
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i, p := range a.All() {
		q := b.All()[i]
		if p.ID != q.ID || p.Country != q.Country || p.Location != q.Location ||
			p.Access != q.Access || p.Env != q.Env || len(p.Tags) != len(q.Tags) {
			t.Fatalf("probe %d differs: %+v vs %+v", i, p, q)
		}
	}
	cfg := DefaultGenConfig()
	cfg.Seed = 99
	c, err := Generate(geo.World(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, p := range a.All() {
		if p.Location != c.All()[i].Location {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

func TestAccessMix(t *testing.T) {
	pop := genDefault(t)
	var wired, wireless, core int
	for _, p := range pop.All() {
		switch p.Access {
		case netem.AccessWired:
			wired++
		case netem.AccessWireless:
			wireless++
		case netem.AccessCore:
			core++
		default:
			t.Fatalf("probe %d has unassigned access", p.ID)
		}
	}
	n := float64(pop.Len())
	if f := float64(wireless) / n; f < 0.15 || f > 0.30 {
		t.Errorf("wireless fraction = %.2f, want ~0.22", f)
	}
	if f := float64(core) / n; f < 0.02 || f > 0.09 {
		t.Errorf("core fraction = %.2f, want ~0.05", f)
	}
	if wired <= wireless {
		t.Error("wired should dominate")
	}
}

func TestPrivilegedFiltering(t *testing.T) {
	pop := genDefault(t)
	pub := pop.Public()
	if len(pub) >= pop.Len() {
		t.Error("no probes were filtered as privileged")
	}
	for _, p := range pub {
		if p.Privileged() {
			t.Fatalf("Public() returned privileged probe %d", p.ID)
		}
	}
	// Tag-based detection: a probe tagged datacentre is privileged even in
	// a home environment.
	p := &Probe{ID: 1, Env: EnvHome, Tags: []string{"datacentre"}}
	if !p.Privileged() {
		t.Error("datacentre-tagged probe not privileged")
	}
}

func TestTagQueries(t *testing.T) {
	pop := genDefault(t)
	wireless := pop.WithAnyTag(WirelessTags)
	wired := pop.WithAnyTag(WiredTags)
	if len(wireless) == 0 || len(wired) == 0 {
		t.Fatalf("tag sets empty: wireless=%d wired=%d", len(wireless), len(wired))
	}
	for _, p := range wireless {
		if p.Access != netem.AccessWireless {
			t.Fatalf("probe %d tagged wireless but access=%v", p.ID, p.Access)
		}
	}
	for _, p := range wired {
		if p.Access != netem.AccessWired {
			t.Fatalf("probe %d tagged wired but access=%v", p.ID, p.Access)
		}
	}
	p := &Probe{ID: 1, Tags: []string{"home", "wifi"}}
	if !p.HasTag("wifi") || p.HasTag("lte") {
		t.Error("HasTag mismatch")
	}
	if !p.HasAnyTag([]string{"lte", "wifi"}) || p.HasAnyTag([]string{"lte", "4g"}) {
		t.Error("HasAnyTag mismatch")
	}
}

func TestSiteConversion(t *testing.T) {
	pop := genDefault(t)
	p := pop.All()[0]
	s := p.Site()
	if s.ID != p.Addr() || s.Location != p.Location || s.Tier != p.Tier ||
		s.Continent != p.Continent || s.Access != p.Access {
		t.Errorf("Site() = %+v does not mirror probe %+v", s, p)
	}
}

// TestAddr: every generated probe's address, spelled once when the
// population is built, is the "probe/<ID>" fmt would spell, and a probe
// built outside a population still answers.
func TestAddr(t *testing.T) {
	for _, p := range genDefault(t).All() {
		if got, want := p.Addr(), fmt.Sprintf("probe/%d", p.ID); got != want {
			t.Fatalf("probe %d: Addr() = %q, want %q", p.ID, got, want)
		}
	}
	p := &Probe{ID: 42}
	if got := p.Addr(); got != "probe/42" {
		t.Errorf("literal probe: Addr() = %q, want probe/42", got)
	}
	if got := p.Site().ID; got != "probe/42" {
		t.Errorf("literal probe: Site().ID = %q, want probe/42", got)
	}
}

func TestAllLocationsValid(t *testing.T) {
	pop := genDefault(t)
	db := geo.World()
	for _, p := range pop.All() {
		if !p.Location.Valid() {
			t.Fatalf("probe %d has invalid location %v", p.ID, p.Location)
		}
		c, ok := db.Lookup(p.Country)
		if !ok {
			t.Fatalf("probe %d in unknown country %s", p.ID, p.Country)
		}
		if c.Continent != p.Continent || c.Tier != p.Tier {
			t.Fatalf("probe %d continent/tier mismatch vs country %s", p.ID, p.Country)
		}
		// Placement jitter stays within a few degrees of the centroid.
		if d := geo.DistanceKm(p.Location, c.Centroid); d > 1200 {
			t.Fatalf("probe %d placed %.0f km from %s centroid", p.ID, d, p.Country)
		}
	}
}

func TestGenConfigValidation(t *testing.T) {
	db := geo.World()
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.Count = 0 },
		func(c *GenConfig) { c.Count = 10 }, // below country coverage
		func(c *GenConfig) { c.ContinentShare = map[geo.Continent]float64{geo.Europe: 0.2} },
		func(c *GenConfig) { c.ContinentShare[geo.Europe] = -0.1 },
		func(c *GenConfig) { c.WirelessFrac = 0.9; c.CoreFrac = 0.3 },
		func(c *GenConfig) { c.ContinentShare[geo.ContinentUnknown] = 0.0 },
	}
	for i, mut := range bad {
		cfg := DefaultGenConfig()
		// Deep-copy the share map so mutations don't leak across cases.
		shares := make(map[geo.Continent]float64, len(cfg.ContinentShare))
		for k, v := range cfg.ContinentShare {
			shares[k] = v
		}
		cfg.ContinentShare = shares
		mut(&cfg)
		if _, err := Generate(db, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNewPopulationValidation(t *testing.T) {
	if _, err := NewPopulation([]*Probe{nil}); err == nil {
		t.Error("nil probe accepted")
	}
	if _, err := NewPopulation([]*Probe{{ID: 0}}); err == nil {
		t.Error("zero ID accepted")
	}
	if _, err := NewPopulation([]*Probe{{ID: 1}, {ID: 1}}); err == nil {
		t.Error("duplicate ID accepted")
	}
	pop, err := NewPopulation([]*Probe{{ID: 2}, {ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pop.All()[0].ID != 1 {
		t.Error("All() not sorted by ID")
	}
	if p, ok := pop.Lookup(2); !ok || p.ID != 2 {
		t.Error("Lookup(2) failed")
	}
	if _, ok := pop.Lookup(3); ok {
		t.Error("Lookup(3) succeeded")
	}
}

func TestEnvironmentString(t *testing.T) {
	cases := map[Environment]string{EnvHome: "home", EnvAccess: "access", EnvCore: "core", 0: "unknown"}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%d.String() = %q", e, e.String())
		}
	}
}
