package cloud

import (
	"testing"

	"repro/internal/geo"
)

func deployment(t *testing.T) *Catalog {
	t.Helper()
	cat, err := Deployment(geo.World())
	if err != nil {
		t.Fatalf("Deployment: %v", err)
	}
	return cat
}

func TestDeploymentMatchesPaper(t *testing.T) {
	cat := deployment(t)
	// §4.1: "101 cloud regions ... from seven cloud providers ... in 21
	// countries".
	if got := cat.Len(); got != 101 {
		t.Errorf("catalog has %d regions, paper targets 101", got)
	}
	if got := len(cat.Countries()); got != 21 {
		t.Errorf("catalog spans %d countries, paper reports 21: %v", got, cat.Countries())
	}
	for _, p := range Providers() {
		if len(cat.ByProvider(p)) == 0 {
			t.Errorf("provider %s has no regions", p.Name)
		}
	}
	if len(Providers()) != 7 {
		t.Errorf("have %d providers, paper uses 7", len(Providers()))
	}
}

func TestBackboneClasses(t *testing.T) {
	// §4.1: Amazon, Google (and Azure, Alibaba) run private backbones;
	// Linode-class operators ride the public Internet.
	private := []Provider{Amazon, Google, Azure, Alibaba}
	public := []Provider{DigitalOcean, Linode, Vultr}
	for _, p := range private {
		if p.Backbone != BackbonePrivate {
			t.Errorf("%s backbone = %v, want private", p.Name, p.Backbone)
		}
	}
	for _, p := range public {
		if p.Backbone != BackbonePublic {
			t.Errorf("%s backbone = %v, want public", p.Name, p.Backbone)
		}
	}
	if Backbone(0).String() != "unknown" || BackbonePrivate.String() != "private" || BackbonePublic.String() != "public" {
		t.Error("Backbone.String mismatch")
	}
}

func TestLookupAndAddr(t *testing.T) {
	cat := deployment(t)
	r, ok := cat.Lookup("Amazon/eu-north-1")
	if !ok {
		t.Fatal("Amazon/eu-north-1 not found")
	}
	if r.City != "Stockholm" || r.Country != "SE" {
		t.Errorf("eu-north-1 = %+v", r)
	}
	if r.Addr() != "Amazon/eu-north-1" {
		t.Errorf("Addr() = %q", r.Addr())
	}
	if _, ok := cat.Lookup("Amazon/nope"); ok {
		t.Error("Lookup(Amazon/nope) succeeded")
	}
}

func TestContinentAssignment(t *testing.T) {
	cat := deployment(t)
	r, _ := cat.Lookup("Microsoft Azure/southafricanorth")
	if got := cat.Continent(r); got != geo.Africa {
		t.Errorf("Johannesburg continent = %v, want Africa", got)
	}
	// §4.3: Africa has "only one operating region".
	if got := len(cat.ByContinent(geo.Africa)); got != 1 {
		t.Errorf("Africa has %d regions, paper reports 1", got)
	}
	// All six continents except Africa have multiple regions; South America
	// has at least 3 (AWS, GCP, Azure in Sao Paulo).
	if got := len(cat.ByContinent(geo.SouthAmerica)); got < 3 {
		t.Errorf("South America has %d regions, want >= 3", got)
	}
}

func TestNearest(t *testing.T) {
	cat := deployment(t)
	// Helsinki's nearest region must be the Hamina GCP datacenter.
	r := cat.Nearest(geo.Point{Lat: 60.17, Lon: 24.94})
	if r == nil || r.ID != "europe-north1" {
		t.Errorf("nearest to Helsinki = %v, want europe-north1", r)
	}
	// An empty catalog has no nearest region.
	empty := &Catalog{}
	if empty.Nearest(geo.Point{}) != nil {
		t.Error("empty catalog returned a nearest region")
	}
}

func TestTargetsFor(t *testing.T) {
	cat := deployment(t)
	// African probes also target Europe (§4.1).
	af := cat.TargetsFor(geo.Africa)
	eu := cat.ByContinent(geo.Europe)
	if len(af) != 1+len(eu) {
		t.Errorf("Africa targets %d regions, want 1 (local) + %d (Europe)", len(af), len(eu))
	}
	// South American probes also target North America.
	sa := cat.TargetsFor(geo.SouthAmerica)
	na := cat.ByContinent(geo.NorthAmerica)
	saLocal := cat.ByContinent(geo.SouthAmerica)
	if len(sa) != len(saLocal)+len(na) {
		t.Errorf("South America targets %d, want %d", len(sa), len(saLocal)+len(na))
	}
	// Europe stays local.
	if len(cat.TargetsFor(geo.Europe)) != len(eu) {
		t.Error("Europe targets differ from local regions")
	}
}

func TestNewCatalogValidation(t *testing.T) {
	db := geo.World()
	good := Region{ID: "r1", Provider: Amazon, City: "X", Country: "US", Location: geo.Point{Lat: 1, Lon: 1}}
	cases := []struct {
		name string
		rs   []Region
	}{
		{"missing id", []Region{{Provider: Amazon, Country: "US", Location: geo.Point{Lat: 1, Lon: 1}}}},
		{"missing provider", []Region{{ID: "x", Country: "US", Location: geo.Point{Lat: 1, Lon: 1}}}},
		{"bad location", []Region{{ID: "x", Provider: Amazon, Country: "US", Location: geo.Point{Lat: 999, Lon: 0}}}},
		{"unknown country", []Region{{ID: "x", Provider: Amazon, Country: "ZZ", Location: geo.Point{Lat: 1, Lon: 1}}}},
		{"duplicate", []Region{good, good}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCatalog(db, tc.rs); err == nil {
				t.Error("NewCatalog accepted invalid input")
			}
		})
	}
	if _, err := NewCatalog(db, []Region{good}); err != nil {
		t.Errorf("NewCatalog rejected valid region: %v", err)
	}
}

func TestAllSorted(t *testing.T) {
	cat := deployment(t)
	all := cat.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Addr() >= all[i].Addr() {
			t.Fatalf("All() not sorted at %d: %s >= %s", i, all[i-1].Addr(), all[i].Addr())
		}
	}
}
