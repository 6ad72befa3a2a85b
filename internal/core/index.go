// Package analysis is the paper's core contribution: the pipeline that
// turns the raw campaign dataset into the evaluation's figures — per-country
// proximity to the cloud (Fig. 4), per-probe minimum-RTT CDFs by continent
// (Fig. 5), full-distribution CDFs (Fig. 6), the wired-vs-wireless last-mile
// comparison (Fig. 7) — and the human-perception latency thresholds those
// figures are read against (§3).
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/geo"
	"repro/internal/probe"
)

// AccessClass buckets probes the way the paper's Figure 7 filter does,
// using user tags only.
type AccessClass uint8

// Access classes for the last-mile comparison.
const (
	AccessOther AccessClass = iota
	AccessWired
	AccessWireless
)

// String names the class.
func (a AccessClass) String() string {
	switch a {
	case AccessWired:
		return "wired"
	case AccessWireless:
		return "wireless"
	default:
		return "other"
	}
}

// Index resolves probe IDs to the geographic and access attributes the
// analyses group by. It is built once from the population and then shared
// by every figure pass.
type Index struct {
	db *geo.DB
	// byID is the probe table, dense by probe ID (IDs are small positive
	// integers); an ID outside the analysis set holds a zero entry with
	// known false. The per-probe accumulators are indexed the same way.
	byID []probeInfo
	// continents is byID's continent column on its own, ContinentUnknown
	// where the probe is not part of the analysis set.
	continents []geo.Continent

	fpOnce sync.Once
	fp     string // Fingerprint's digest, computed on first use
}

type probeInfo struct {
	known     bool
	country   string
	continent geo.Continent
	access    AccessClass
	tier      geo.Tier
	lon       float64 // longitude: only Fingerprint reads it, so bound files keep their digest
}

// NewIndex builds the lookup table from the public (non-privileged) probes;
// samples from privileged or unknown probes are skipped by the analyses,
// mirroring the paper's filtering.
func NewIndex(pop *probe.Population, db *geo.DB) (*Index, error) {
	if pop == nil || db == nil {
		return nil, errors.New("analysis: nil population or database")
	}
	idx := &Index{db: db}
	for _, p := range pop.Public() {
		if p.ID < 0 {
			return nil, fmt.Errorf("analysis: negative probe ID %d", p.ID)
		}
		info := probeInfo{known: true, country: p.Country, continent: p.Continent, access: AccessOther, tier: p.Tier, lon: p.Location.Lon}
		switch {
		case p.HasAnyTag(probe.WirelessTags):
			info.access = AccessWireless
		case p.HasAnyTag(probe.WiredTags):
			info.access = AccessWired
		}
		if grow := p.ID + 1 - len(idx.byID); grow > 0 {
			idx.byID = append(idx.byID, make([]probeInfo, grow)...)
			idx.continents = append(idx.continents, make([]geo.Continent, grow)...)
		}
		idx.byID[p.ID] = info
		idx.continents[p.ID] = p.Continent
	}
	return idx, nil
}

// info returns the probe's entry; ok is false for a probe outside the
// analysis set.
func (idx *Index) info(probeID int) (probeInfo, bool) {
	if uint(probeID) >= uint(len(idx.byID)) {
		return probeInfo{}, false
	}
	info := idx.byID[probeID]
	return info, info.known
}

// Known reports whether the probe is part of the analysis set.
func (idx *Index) Known(probeID int) bool {
	_, ok := idx.info(probeID)
	return ok
}

// Country returns the probe's ISO2 country.
func (idx *Index) Country(probeID int) (string, bool) {
	info, ok := idx.info(probeID)
	return info.country, ok
}

// Continent returns the probe's continent.
func (idx *Index) Continent(probeID int) (geo.Continent, bool) {
	info, ok := idx.info(probeID)
	return info.continent, ok
}

// ContinentTable returns the probe-ID-indexed continent table: entry id
// is what Continent(id) answers for a known probe and ContinentUnknown
// for every other ID below len. Batch kernels index it once per row
// instead of paying a map lookup per probe run; callers must not
// modify it.
func (idx *Index) ContinentTable() []geo.Continent { return idx.continents }

// CountryName resolves an ISO2 code to the display name.
func (idx *Index) CountryName(iso2 string) string {
	if c, ok := idx.db.Lookup(iso2); ok {
		return c.Name
	}
	return iso2
}

// Countries returns the country database underlying the index.
func (idx *Index) Countries() *geo.DB { return idx.db }
