package geo

import (
	"fmt"
	"sort"
)

// Tier grades a country's Internet infrastructure development. It drives the
// transit-latency penalty in the network model: tier-1 countries have dense
// peering and IXPs, tier-4 countries (much of Africa, per §4.3) are severely
// under-served, seeing 150-200 ms typical cloud RTTs.
type Tier uint8

// Infrastructure tiers, best (1) to worst (4).
const (
	Tier1 Tier = 1 + iota
	Tier2
	Tier3
	Tier4
)

// String returns "tier-N".
func (t Tier) String() string { return fmt.Sprintf("tier-%d", uint8(t)) }

// Country describes one ISO-3166 country as the study's per-country unit of
// aggregation (Figure 4).
type Country struct {
	ISO2      string    // two-letter ISO-3166-1 code
	Name      string    // English short name
	Continent Continent // continental assignment used for grouping
	Centroid  Point     // approximate population-weighted centroid
	Tier      Tier      // Internet infrastructure development tier
}

// DB is an immutable set of countries indexed by ISO2 code.
type DB struct {
	byISO map[string]*Country
	all   []*Country
}

// NewDB builds a database from the supplied countries. Duplicate ISO codes
// or invalid centroids are an error.
func NewDB(countries []Country) (*DB, error) {
	db := &DB{byISO: make(map[string]*Country, len(countries))}
	for i := range countries {
		c := countries[i]
		if len(c.ISO2) != 2 {
			return nil, fmt.Errorf("geo: bad ISO2 code %q", c.ISO2)
		}
		if !c.Centroid.Valid() {
			return nil, fmt.Errorf("geo: country %s has invalid centroid %v", c.ISO2, c.Centroid)
		}
		if c.Continent == ContinentUnknown {
			return nil, fmt.Errorf("geo: country %s has no continent", c.ISO2)
		}
		if c.Tier < Tier1 || c.Tier > Tier4 {
			return nil, fmt.Errorf("geo: country %s has invalid tier %d", c.ISO2, c.Tier)
		}
		if _, dup := db.byISO[c.ISO2]; dup {
			return nil, fmt.Errorf("geo: duplicate country %s", c.ISO2)
		}
		cc := c
		db.byISO[c.ISO2] = &cc
		db.all = append(db.all, &cc)
	}
	sort.Slice(db.all, func(i, j int) bool { return db.all[i].ISO2 < db.all[j].ISO2 })
	return db, nil
}

// World returns the built-in database of 178 countries (the paper's
// census counts 166 probe-hosting ones). It panics only on a programming error in the
// embedded table, which is covered by tests.
func World() *DB {
	db, err := NewDB(worldCountries)
	if err != nil {
		panic(err)
	}
	return db
}

// Lookup returns the country for an ISO2 code.
func (db *DB) Lookup(iso2 string) (*Country, bool) {
	c, ok := db.byISO[iso2]
	return c, ok
}

// All returns every country, sorted by ISO2 code. The returned slice must
// not be modified.
func (db *DB) All() []*Country { return db.all }

// Len returns the number of countries.
func (db *DB) Len() int { return len(db.all) }

// ByContinent returns the countries of one continent, sorted by ISO2 code.
func (db *DB) ByContinent(ct Continent) []*Country {
	var out []*Country
	for _, c := range db.all {
		if c.Continent == ct {
			out = append(out, c)
		}
	}
	return out
}
