// Package apps models the applications driving the edge-computing hype
// (Figure 2) — their latency and bandwidth requirements, expected market
// sizes — and the feasibility-zone analysis (Figure 8) that intersects those
// requirements with the measured reality of cloud latency and last-mile
// access.
package apps

import (
	"fmt"
	"sort"
)

// Span is a [Lo, Hi] requirement interval; Lo==Hi models a point
// requirement. The paper draws each application as an ellipse to absorb
// estimation error; Span is the projection of that ellipse onto one axis.
type Span struct {
	Lo, Hi float64
}

// Valid reports interval sanity.
func (s Span) Valid() bool { return s.Lo >= 0 && s.Hi >= s.Lo }

// App is one Figure 2 application.
type App struct {
	Name string
	// LatencyMs is the response-time window the application needs for
	// optimal operation (round trip).
	LatencyMs Span
	// DataGBPerEntity is the data volume one entity (camera, car, sensor)
	// generates per day, in gigabytes; it proxies bandwidth demand.
	DataGBPerEntity Span
	// MarketBUSD is the expected 2025 market in billions of USD (ellipse
	// color in the figure).
	MarketBUSD float64
}

// Validate checks the entry.
func (a App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("apps: unnamed application")
	}
	if !a.LatencyMs.Valid() || a.LatencyMs.Hi == 0 {
		return fmt.Errorf("apps: %s has invalid latency span %+v", a.Name, a.LatencyMs)
	}
	if !a.DataGBPerEntity.Valid() {
		return fmt.Errorf("apps: %s has invalid data span %+v", a.Name, a.DataGBPerEntity)
	}
	if a.MarketBUSD < 0 {
		return fmt.Errorf("apps: %s has negative market", a.Name)
	}
	return nil
}

// Quadrant is the Figure 2 grouping by latency strictness and bandwidth
// demand (§3).
type Quadrant uint8

// The four quadrants.
const (
	_  Quadrant = iota // the zero value is no quadrant
	Q1                 // low latency, low bandwidth (wearables, health)
	Q2                 // low latency, high bandwidth (AR/VR, vehicles, gaming)
	Q3                 // high latency, high bandwidth (smart city, video analytics)
	Q4                 // high latency, low bandwidth (smart home, weather)
)

// String names the quadrant as in the figure.
func (q Quadrant) String() string {
	switch q {
	case Q1:
		return "Q1 (low latency, low bandwidth)"
	case Q2:
		return "Q2 (low latency, high bandwidth)"
	case Q3:
		return "Q3 (high latency, high bandwidth)"
	case Q4:
		return "Q4 (high latency, low bandwidth)"
	default:
		return "unknown"
	}
}

// Quadrant thresholds: latency is "strict" below the perceivable-latency
// threshold; bandwidth is "high" above the 1 GB/entity aggregation-gain
// mark (§5).
const (
	StrictLatencyMs = 100.0 // PL threshold
	HighBandwidthGB = 1.0
)

// Quadrant classifies the application.
func (a App) Quadrant() Quadrant {
	strict := a.LatencyMs.Hi <= StrictLatencyMs
	heavy := a.DataGBPerEntity.Hi >= HighBandwidthGB
	switch {
	case strict && !heavy:
		return Q1
	case strict && heavy:
		return Q2
	case !strict && heavy:
		return Q3
	default:
		return Q4
	}
}

// Catalog is a validated set of applications.
type Catalog struct {
	apps []App
}

// NewCatalog validates and sorts the applications by name.
func NewCatalog(apps []App) (*Catalog, error) {
	seen := make(map[string]bool, len(apps))
	out := make([]App, 0, len(apps))
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("apps: duplicate application %q", a.Name)
		}
		seen[a.Name] = true
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("apps: empty catalog")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return &Catalog{apps: out}, nil
}

// Paper returns the built-in Figure 2 catalog.
func Paper() *Catalog {
	c, err := NewCatalog(paperApps)
	if err != nil {
		panic(err) // covered by tests
	}
	return c
}

// All returns the applications sorted by name.
func (c *Catalog) All() []App { return c.apps }

// ByQuadrant groups the catalog for the Figure 2 rendering.
func (c *Catalog) ByQuadrant() map[Quadrant][]App {
	out := make(map[Quadrant][]App)
	for _, a := range c.apps {
		q := a.Quadrant()
		out[q] = append(out[q], a)
	}
	return out
}
