package core

import (
	"fmt"

	"repro/internal/geo"
)

// Band is the Figure 4 latency coloring of a country.
type Band uint8

// Figure 4 bands.
const (
	BandUnknown Band = iota
	BandSub10        // < 10 ms: country hosts (or nearly hosts) a datacenter
	Band10to20       // 10-20 ms: borders or direct fiber to a DC country
	Band20to100      // 20-100 ms: within perceivable latency of the cloud
	BandOver100      // >= 100 ms: beyond the PL threshold
)

// String formats the band the way the figure legend does.
func (b Band) String() string {
	switch b {
	case BandSub10:
		return "<10ms"
	case Band10to20:
		return "10-20ms"
	case Band20to100:
		return "20-100ms"
	case BandOver100:
		return ">=100ms"
	default:
		return "no-data"
	}
}

// BandOf assigns an RTT to its Figure 4 band.
func BandOf(rttMs float64) Band {
	switch {
	case rttMs < 10:
		return BandSub10
	case rttMs < 20:
		return Band10to20
	case rttMs < 100:
		return Band20to100
	default:
		return BandOver100
	}
}

// ProximityRow is one country of Figure 4: the minimum RTT observed by the
// best-performing probe in the country to any datacenter.
type ProximityRow struct {
	Country   string        `json:"country"` // ISO2
	Name      string        `json:"name"`
	Continent geo.Continent `json:"continent"`
	MinRTTms  float64       `json:"min_rtt_ms"`
	Band      Band          `json:"band"`
	Samples   int           `json:"samples"` // delivered samples behind the minimum
}

// ProximityReport is the Figure 4 dataset: per-country minimum cloud
// latency.
type ProximityReport struct {
	Rows []ProximityRow `json:"rows"` // sorted by ascending minimum RTT
}

// CountByBand tallies countries per Figure 4 band.
func (r *ProximityReport) CountByBand() map[Band]int {
	out := make(map[Band]int)
	for _, row := range r.Rows {
		out[row.Band]++
	}
	return out
}

// CountWithin returns how many countries reach the cloud under the given
// RTT.
func (r *ProximityReport) CountWithin(ms float64) int {
	n := 0
	for _, row := range r.Rows {
		if row.MinRTTms < ms {
			n++
		}
	}
	return n
}

// Lookup returns the row for a country.
func (r *ProximityReport) Lookup(iso2 string) (ProximityRow, bool) {
	for _, row := range r.Rows {
		if row.Country == iso2 {
			return row, true
		}
	}
	return ProximityRow{}, false
}

// Format renders the rows as figure-ready text lines.
func (r *ProximityReport) Format() []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, fmt.Sprintf("%s (%s)  min=%.1fms  band=%s", row.Country, row.Name, row.MinRTTms, row.Band))
	}
	return out
}
