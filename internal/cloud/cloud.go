// Package cloud models the study's measurement end-points: the 101 compute
// cloud regions of seven providers (Figure 3a) that the paper established
// VMs in, with real-world coordinates and the provider's backbone class
// (private wide-scale peered backbone vs public-Internet transit), which the
// latency model uses for path stretch.
package cloud

import (
	"fmt"
	"sort"

	"repro/internal/geo"
)

// Backbone classifies how a provider carries wide-area traffic (§4.1: some
// providers run private, high-bandwidth, low-latency backbones with
// wide-scale ISP peering; others largely rely on the public Internet).
type Backbone uint8

// Backbone classes.
const (
	BackboneUnknown Backbone = iota
	BackbonePrivate          // private backbone, broad ISP peering
	BackbonePublic           // public-Internet transit
)

// String names the backbone class.
func (b Backbone) String() string {
	switch b {
	case BackbonePrivate:
		return "private"
	case BackbonePublic:
		return "public"
	default:
		return "unknown"
	}
}

// Provider identifies one of the seven measured cloud operators.
type Provider struct {
	Name     string   // e.g. "Amazon"
	Backbone Backbone // wide-area transport class
}

// The seven providers of the study (§4.1).
var (
	Amazon       = Provider{Name: "Amazon", Backbone: BackbonePrivate}
	Google       = Provider{Name: "Google", Backbone: BackbonePrivate}
	Azure        = Provider{Name: "Microsoft Azure", Backbone: BackbonePrivate}
	Alibaba      = Provider{Name: "Alibaba", Backbone: BackbonePrivate}
	DigitalOcean = Provider{Name: "DigitalOcean", Backbone: BackbonePublic}
	Linode       = Provider{Name: "Linode", Backbone: BackbonePublic}
	Vultr        = Provider{Name: "Vultr", Backbone: BackbonePublic}
)

// Providers lists all seven operators in a stable order.
func Providers() []Provider {
	return []Provider{Amazon, Google, Azure, Alibaba, DigitalOcean, Linode, Vultr}
}

// Region is one cloud region hosting a measurement VM.
type Region struct {
	ID       string    // provider-native region identifier, e.g. "eu-north-1"
	Provider Provider  // owning operator
	City     string    // nearest city, for display
	Country  string    // ISO2 country code
	Location geo.Point // datacenter coordinates

	addr string // Addr's answer, spelled once by NewCatalog
	pos  int    // index in its catalog's All()
}

// Addr returns the region's stable simulator address ("provider/id").
// The campaign asks for it twice per sample, so a catalog's regions
// carry the string; a region outside any catalog builds it on demand.
func (r *Region) Addr() string {
	if r.addr != "" {
		return r.addr
	}
	return r.Provider.Name + "/" + r.ID
}

// Catalog is an immutable set of regions with lookup helpers.
type Catalog struct {
	regions   []*Region
	byAddr    map[string]*Region
	continent map[*Region]geo.Continent
}

// NewCatalog validates regions against the country database and indexes
// them. Every region's country must exist in db and its location must be
// valid.
func NewCatalog(db *geo.DB, regions []Region) (*Catalog, error) {
	c := &Catalog{
		byAddr:    make(map[string]*Region, len(regions)),
		continent: make(map[*Region]geo.Continent, len(regions)),
	}
	for i := range regions {
		r := regions[i]
		if r.ID == "" || r.Provider.Name == "" {
			return nil, fmt.Errorf("cloud: region %d missing id or provider", i)
		}
		if !r.Location.Valid() {
			return nil, fmt.Errorf("cloud: region %s has invalid location", r.ID)
		}
		country, ok := db.Lookup(r.Country)
		if !ok {
			return nil, fmt.Errorf("cloud: region %s in unknown country %q", r.ID, r.Country)
		}
		rr := r
		rr.addr = rr.Provider.Name + "/" + rr.ID
		if _, dup := c.byAddr[rr.Addr()]; dup {
			return nil, fmt.Errorf("cloud: duplicate region %s", rr.Addr())
		}
		c.regions = append(c.regions, &rr)
		c.byAddr[rr.Addr()] = &rr
		c.continent[&rr] = country.Continent
	}
	sort.Slice(c.regions, func(i, j int) bool { return c.regions[i].Addr() < c.regions[j].Addr() })
	for i, r := range c.regions {
		r.pos = i
	}
	return c, nil
}

// Deployment returns the built-in catalog of the 101 regions the paper
// targeted, validated against the world database.
func Deployment(db *geo.DB) (*Catalog, error) {
	return NewCatalog(db, deploymentRegions)
}

// All returns every region sorted by address. The slice must not be modified.
func (c *Catalog) All() []*Region { return c.regions }

// Len returns the number of regions.
func (c *Catalog) Len() int { return len(c.regions) }

// Lookup resolves a region by its "provider/id" address.
func (c *Catalog) Lookup(addr string) (*Region, bool) {
	r, ok := c.byAddr[addr]
	return r, ok
}

// Position returns r's index in All(); false for a region that is not
// one of this catalog's.
func (c *Catalog) Position(r *Region) (int, bool) {
	if r.pos < len(c.regions) && c.regions[r.pos] == r {
		return r.pos, true
	}
	return 0, false
}

// Continent returns the continent a catalog region sits on.
func (c *Catalog) Continent(r *Region) geo.Continent { return c.continent[r] }

// ByContinent returns the regions on one continent, sorted by address.
func (c *Catalog) ByContinent(ct geo.Continent) []*Region {
	var out []*Region
	for _, r := range c.regions {
		if c.continent[r] == ct {
			out = append(out, r)
		}
	}
	return out
}

// ByProvider returns the regions of one provider, sorted by address.
func (c *Catalog) ByProvider(p Provider) []*Region {
	var out []*Region
	for _, r := range c.regions {
		if r.Provider.Name == p.Name {
			out = append(out, r)
		}
	}
	return out
}

// Countries returns the distinct ISO2 codes hosting at least one region,
// sorted.
func (c *Catalog) Countries() []string {
	set := make(map[string]bool)
	for _, r := range c.regions {
		set[r.Country] = true
	}
	out := make([]string, 0, len(set))
	for iso := range set {
		out = append(out, iso)
	}
	sort.Strings(out)
	return out
}

// Nearest returns the region geographically closest to p, or nil for an
// empty catalog.
func (c *Catalog) Nearest(p geo.Point) *Region {
	var best *Region
	bestKm := 0.0
	for _, r := range c.regions {
		d := geo.DistanceKm(p, r.Location)
		if best == nil || d < bestKm {
			best, bestKm = r, d
		}
	}
	return best
}

// TargetsFor returns the regions a probe on continent ct measures to,
// following the paper's same-continent rule with the Africa→Europe and
// South-America→North-America extensions.
func (c *Catalog) TargetsFor(ct geo.Continent) []*Region {
	var out []*Region
	for _, target := range ct.MeasurementTargets() {
		out = append(out, c.ByContinent(target)...)
	}
	return out
}
