// Package bandwidth models the second axis of the feasibility zone: the
// backhaul load an application deployment places on the network, with and
// without edge aggregation (§3 Q2/Q3, §5). It quantifies the paper's
// "1 GB/entity" threshold: the per-entity data volume at which a
// metro-scale deployment saturates its backhaul unless the edge
// pre-processes the data.
package bandwidth

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/apps"
)

// GBPerDayToMbps converts a daily data volume into a sustained rate:
// 1 GB/day = 8e3 Mbit / 86400 s.
const GBPerDayToMbps = 8.0 * 1000 / 86400

// Deployment is one application rollout in a metro area.
type Deployment struct {
	// Entities is the number of data-producing units (cameras, cars,
	// sensors) behind one backhaul aggregation point.
	Entities int
	// GBPerEntityDay is each entity's daily data production.
	GBPerEntityDay float64
	// Reduction is the fraction of data an edge node removes before it
	// crosses the backhaul (aggregation, filtering, inference); 0 means the
	// edge forwards everything, 0.95 means only 5% continues upstream.
	Reduction float64
	// BackhaulMbps is the aggregation point's upstream capacity.
	BackhaulMbps float64
}

// Validate checks the deployment parameters.
func (d Deployment) Validate() error {
	if d.Entities <= 0 {
		return fmt.Errorf("bandwidth: non-positive entity count %d", d.Entities)
	}
	if d.GBPerEntityDay < 0 {
		return fmt.Errorf("bandwidth: negative data volume %v", d.GBPerEntityDay)
	}
	if d.Reduction < 0 || d.Reduction > 1 {
		return fmt.Errorf("bandwidth: reduction %v out of [0,1]", d.Reduction)
	}
	if d.BackhaulMbps <= 0 {
		return fmt.Errorf("bandwidth: non-positive backhaul %v", d.BackhaulMbps)
	}
	return nil
}

// DemandMbps is the sustained upstream rate without an edge.
func (d Deployment) DemandMbps() float64 {
	return float64(d.Entities) * d.GBPerEntityDay * GBPerDayToMbps
}

// EdgeDemandMbps is the rate after edge aggregation.
func (d Deployment) EdgeDemandMbps() float64 {
	return d.DemandMbps() * (1 - d.Reduction)
}

// Utilization returns backhaul utilization (may exceed 1 = congestion).
func (d Deployment) Utilization(withEdge bool) float64 {
	demand := d.DemandMbps()
	if withEdge {
		demand = d.EdgeDemandMbps()
	}
	return demand / d.BackhaulMbps
}

// Metro is the reference aggregation point used to justify the zone
// threshold: ~100k entities behind a 10 Gbps metro backhaul.
func Metro() Deployment {
	return Deployment{Entities: 100_000, BackhaulMbps: 10_000}
}

// DefaultMetroEntities estimates how many entities of each Figure 2
// application share one metro aggregation point: thousands of traffic
// cameras, tens of thousands of vehicles, hundreds of thousands of homes.
// Unknown applications fall back to the Metro reference count.
func DefaultMetroEntities() map[string]int {
	return map[string]int{
		"Traffic camera monitoring": 2_000,
		"Autonomous vehicles":       50_000,
		"AR/VR":                     20_000,
		"360-degree streaming":      20_000,
		"Cloud gaming":              50_000,
		"Industrial robots":         10_000,
		"Remote surgery":            1_000,
		"Smart city":                2_000,
		"Video streaming analytics": 5_000,
		"Connected factories":       5_000,
		"Smart home":                100_000,
		"Wearables":                 200_000,
		"Health monitoring":         200_000,
		"Voice assistants":          200_000,
		"Weather monitoring":        50_000,
		"Smart parking":             50_000,
	}
}

// BreakEvenGBPerEntity returns the per-entity daily volume at which the
// raw (edge-less) demand reaches the target utilization of the backhaul.
// With the Metro reference and a 100% target this lands near the paper's
// 1 GB/entity threshold.
func BreakEvenGBPerEntity(d Deployment, targetUtilization float64) (float64, error) {
	probe := Deployment{Entities: d.Entities, GBPerEntityDay: 1, BackhaulMbps: d.BackhaulMbps}
	if err := probe.Validate(); err != nil {
		return 0, err
	}
	if targetUtilization <= 0 {
		return 0, errors.New("bandwidth: non-positive target utilization")
	}
	return targetUtilization * d.BackhaulMbps / (float64(d.Entities) * GBPerDayToMbps), nil
}

// AppRow is one application's bandwidth verdict.
type AppRow struct {
	App            string  `json:"app"`
	Entities       int     `json:"entities"`          // metro-scale entity count
	GBPerEntityDay float64 `json:"gb_per_entity_day"` // upper requirement bound
	RawUtilization float64 `json:"raw_utilization"`   // without edge, on the reference metro
	EdgeHelps      bool    `json:"edge_helps"`        // edge aggregation averts congestion
}

// Report evaluates the Figure 2 catalog on a reference deployment.
type Report struct {
	Reference Deployment `json:"reference"`
	Reduction float64    `json:"reduction"`
	Rows      []AppRow   `json:"rows"` // sorted by raw utilization, descending
}

// Justify evaluates every catalog application on the reference metro
// deployment with the given edge reduction factor: edge bandwidth
// aggregation "helps" when the raw demand congests the backhaul
// (utilization > 1) and the edge brings it back under.
func Justify(catalog *apps.Catalog, ref Deployment, reduction float64) (*Report, error) {
	if catalog == nil {
		return nil, errors.New("bandwidth: nil catalog")
	}
	if reduction < 0 || reduction > 1 {
		return nil, fmt.Errorf("bandwidth: reduction %v out of [0,1]", reduction)
	}
	entities := DefaultMetroEntities()
	rep := &Report{Reference: ref, Reduction: reduction}
	for _, a := range catalog.All() {
		d := ref
		if n, ok := entities[a.Name]; ok {
			d.Entities = n
		}
		d.GBPerEntityDay = a.DataGBPerEntity.Hi
		d.Reduction = reduction
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("bandwidth: %s: %w", a.Name, err)
		}
		raw := d.Utilization(false)
		rep.Rows = append(rep.Rows, AppRow{
			App:            a.Name,
			Entities:       d.Entities,
			GBPerEntityDay: a.DataGBPerEntity.Hi,
			RawUtilization: raw,
			EdgeHelps:      raw > 1 && d.Utilization(true) <= 1,
		})
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].RawUtilization != rep.Rows[j].RawUtilization {
			return rep.Rows[i].RawUtilization > rep.Rows[j].RawUtilization
		}
		return rep.Rows[i].App < rep.Rows[j].App
	})
	return rep, nil
}

// Format renders figure-ready lines.
func (r *Report) Format() []string {
	lines := []string{fmt.Sprintf("reference: %d entities, %.0f Mbps backhaul, edge reduction %.0f%%",
		r.Reference.Entities, r.Reference.BackhaulMbps, 100*r.Reduction)}
	for _, row := range r.Rows {
		verdict := "cloud backhaul suffices"
		switch {
		case row.EdgeHelps:
			verdict = "edge aggregation averts congestion"
		case row.RawUtilization > 1:
			verdict = "congested even with edge"
		}
		lines = append(lines, fmt.Sprintf("%-26s %8.2fGB/day  util=%6.2fx  %s",
			row.App, row.GBPerEntityDay, row.RawUtilization, verdict))
	}
	return lines
}
