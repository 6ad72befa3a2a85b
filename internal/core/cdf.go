package core

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/stats"
)

// ContinentCDF holds one continent's empirical RTT distribution.
type ContinentCDF struct {
	Continent geo.Continent
	Dist      *stats.Dist
}

// CDFReport groups distributions by continent; it backs both Figure 5
// (per-probe minimum RTT) and Figure 6 (every sample).
type CDFReport struct {
	byContinent map[geo.Continent]*stats.Dist
}

// Continents returns the continents with data, in canonical order.
func (r *CDFReport) Continents() []geo.Continent {
	var out []geo.Continent
	for _, ct := range geo.Continents() {
		if d, ok := r.byContinent[ct]; ok && d.N() > 0 {
			out = append(out, ct)
		}
	}
	return out
}

// Dist returns one continent's distribution.
func (r *CDFReport) Dist(ct geo.Continent) (*stats.Dist, bool) {
	d, ok := r.byContinent[ct]
	return d, ok
}

// N returns one continent's sample count, zero when it has no data.
func (r *CDFReport) N(ct geo.Continent) int {
	if d, ok := r.byContinent[ct]; ok {
		return d.N()
	}
	return 0
}

// FractionWithin returns the empirical P(RTT <= ms) for a continent.
func (r *CDFReport) FractionWithin(ct geo.Continent, ms float64) (float64, error) {
	d, ok := r.byContinent[ct]
	if !ok {
		return 0, fmt.Errorf("analysis: no data for %v", ct)
	}
	return d.CDF(ms)
}

// Quantile returns a continent's q-quantile RTT.
func (r *CDFReport) Quantile(ct geo.Continent, q float64) (float64, error) {
	d, ok := r.byContinent[ct]
	if !ok {
		return 0, fmt.Errorf("analysis: no data for %v", ct)
	}
	return d.Quantile(q)
}

// Curve samples a continent's CDF at the given grid — the series a figure
// plots.
func (r *CDFReport) Curve(ct geo.Continent, grid []float64) ([]stats.CDFPoint, error) {
	d, ok := r.byContinent[ct]
	if !ok {
		return nil, fmt.Errorf("analysis: no data for %v", ct)
	}
	return d.Curve(grid)
}

// DefaultGrid is the x-axis used by the figure output: 1..400 ms.
func DefaultGrid() []float64 {
	grid := make([]float64, 0, 400)
	for x := 1.0; x <= 400; x++ {
		grid = append(grid, x)
	}
	return grid
}
