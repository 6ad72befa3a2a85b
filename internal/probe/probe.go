// Package probe models the study's vantage points: a synthetic
// RIPE-Atlas-like probe population (Figure 3b) with per-country placement,
// network environments, user tags describing the access link, and the
// privileged-location filtering the paper applies (§4.1).
package probe

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/geo"
	"repro/internal/netem"
)

// Environment is the network environment a probe is installed in (§4.1:
// core, access, or home).
type Environment uint8

// Environments.
const (
	_         Environment = iota // the zero value is unclassified
	EnvHome                      // residential connection
	EnvAccess                    // office / access network
	EnvCore                      // datacenter, IXP or backbone (privileged)
)

// String names the environment.
func (e Environment) String() string {
	if int(e) < len(environmentNames) {
		return environmentNames[e]
	}
	return "unknown"
}

var environmentNames = [...]string{"unknown", "home", "access", "core"}

// Well-known user tags, mirroring RIPE Atlas conventions. Wired and
// wireless tag sets drive the Figure 7 filtering.
var (
	WiredTags      = []string{"ethernet", "broadband", "dsl", "fibre"}
	WirelessTags   = []string{"wifi", "wlan", "lte", "4g"}
	PrivilegedTags = []string{"datacentre", "cloud", "ixp"}
)

// Probe is one vantage point.
type Probe struct {
	ID        int           `json:"id"`
	Country   string        `json:"country"` // ISO2
	Continent geo.Continent `json:"continent"`
	Tier      geo.Tier      `json:"tier"`
	Location  geo.Point     `json:"location"`
	Access    netem.Access  `json:"access"`
	Env       Environment   `json:"env"`
	Tags      []string      `json:"tags"`

	// addr is Addr's answer, spelled once by NewPopulation: a campaign
	// derives a path per (probe, region) pair from it.
	addr string
}

// HasTag reports whether the probe carries the user tag.
func (p *Probe) HasTag(tag string) bool { return slices.Contains(p.Tags, tag) }

// HasAnyTag reports whether the probe carries at least one of the tags.
func (p *Probe) HasAnyTag(tags []string) bool { return slices.ContainsFunc(tags, p.HasTag) }

// Privileged reports whether the probe is clearly installed in a privileged
// location (datacenter or cloud network). The paper filters these out of all
// analyses using user-defined tags (§4.1).
func (p *Probe) Privileged() bool {
	return p.Env == EnvCore || p.HasAnyTag(PrivilegedTags)
}

// Addr returns the probe's stable simulator address, "probe/<ID>".
func (p *Probe) Addr() string {
	if p.addr != "" {
		return p.addr
	}
	return "probe/" + strconv.Itoa(p.ID)
}

// Site converts the probe into a netem path endpoint.
func (p *Probe) Site() netem.Site {
	return netem.Site{
		ID:        p.Addr(),
		Location:  p.Location,
		Continent: p.Continent,
		Tier:      p.Tier,
		Access:    p.Access,
	}
}

// Population is an immutable set of probes.
type Population struct {
	probes []*Probe
	byID   map[int]*Probe
}

// NewPopulation indexes the probes and spells each one's address. IDs
// must be unique and positive, and must not change afterwards.
func NewPopulation(probes []*Probe) (*Population, error) {
	pop := &Population{byID: make(map[int]*Probe, len(probes))}
	for _, p := range probes {
		if p == nil {
			return nil, fmt.Errorf("probe: nil probe")
		}
		if p.ID <= 0 {
			return nil, fmt.Errorf("probe: non-positive ID %d", p.ID)
		}
		if _, dup := pop.byID[p.ID]; dup {
			return nil, fmt.Errorf("probe: duplicate ID %d", p.ID)
		}
		p.addr = p.Addr()
		pop.byID[p.ID] = p
		pop.probes = append(pop.probes, p)
	}
	sort.Slice(pop.probes, func(i, j int) bool { return pop.probes[i].ID < pop.probes[j].ID })
	return pop, nil
}

// All returns every probe sorted by ID. The slice must not be modified.
func (pop *Population) All() []*Probe { return pop.probes }

// Len returns the population size.
func (pop *Population) Len() int { return len(pop.probes) }

// Lookup resolves a probe by ID.
func (pop *Population) Lookup(id int) (*Probe, bool) {
	p, ok := pop.byID[id]
	return p, ok
}

// Filter returns the probes satisfying pred, in ID order.
func (pop *Population) Filter(pred func(*Probe) bool) []*Probe {
	var out []*Probe
	for _, p := range pop.probes {
		if pred(p) {
			out = append(out, p)
		}
	}
	return out
}

// Public returns the probes that survive the paper's privileged-location
// filter.
func (pop *Population) Public() []*Probe {
	return pop.Filter(func(p *Probe) bool { return !p.Privileged() })
}

// WithAnyTag returns the public probes carrying at least one of the tags.
func (pop *Population) WithAnyTag(tags []string) []*Probe {
	return pop.Filter(func(p *Probe) bool { return !p.Privileged() && p.HasAnyTag(tags) })
}

// Countries returns the distinct ISO2 codes hosting at least one probe,
// sorted.
func (pop *Population) Countries() []string {
	set := make(map[string]bool)
	for _, p := range pop.probes {
		set[p.Country] = true
	}
	out := make([]string, 0, len(set))
	for iso := range set {
		out = append(out, iso)
	}
	sort.Strings(out)
	return out
}

// CountByContinent tallies public probes per continent (Figure 3b).
func (pop *Population) CountByContinent() map[geo.Continent]int {
	out := make(map[geo.Continent]int)
	for _, p := range pop.probes {
		if !p.Privileged() {
			out[p.Continent]++
		}
	}
	return out
}
