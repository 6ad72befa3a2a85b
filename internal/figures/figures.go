// Package figures regenerates every figure of the paper's evaluation as
// text rows/series: the same numbers the plots encode, in a form a harness
// can assert against, plus CSV and SVG forms where a figure has them.
// Table (table.go) is the one list of the figures: each entry's name,
// caption, what it reads — nothing, the world, or the core.PassSet of a
// suite report — and its text, CSV and SVG renderers. cmd/shears,
// cmd/figures and internal/serve iterate or look up that table; the
// per-figure functions below (Figure 1's in zeitgeist.go) are what its
// entries call.
package figures

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/probe"
)

// Figure2 renders the application-requirements map grouped by quadrant.
func Figure2(catalog *apps.Catalog) ([]string, error) {
	if catalog == nil {
		return nil, fmt.Errorf("figures: nil catalog")
	}
	byQ := catalog.ByQuadrant()
	var lines []string
	for _, q := range []apps.Quadrant{apps.Q1, apps.Q2, apps.Q3, apps.Q4} {
		lines = append(lines, q.String())
		for _, a := range byQ[q] {
			lines = append(lines, fmt.Sprintf("  %-26s latency=[%g,%g]ms  data=[%g,%g]GB  market=$%gB",
				a.Name, a.LatencyMs.Lo, a.LatencyMs.Hi, a.DataGBPerEntity.Lo, a.DataGBPerEntity.Hi, a.MarketBUSD))
		}
	}
	return lines, nil
}

// Figure3a summarizes the cloud-region deployment per provider and country.
func Figure3a(cat *cloud.Catalog) ([]string, error) {
	if cat == nil {
		return nil, fmt.Errorf("figures: nil catalog")
	}
	lines := []string{fmt.Sprintf("%d regions, %d providers, %d countries",
		cat.Len(), len(cloud.Providers()), len(cat.Countries()))}
	for _, p := range cloud.Providers() {
		lines = append(lines, fmt.Sprintf("  %-16s %3d regions (%s backbone)",
			p.Name, len(cat.ByProvider(p)), p.Backbone))
	}
	for _, ct := range geo.Continents() {
		lines = append(lines, fmt.Sprintf("  %-16s %3d regions", ct.String(), len(cat.ByContinent(ct))))
	}
	return lines, nil
}

// Figure3b summarizes the probe census per continent.
func Figure3b(pop *probe.Population) ([]string, error) {
	if pop == nil {
		return nil, fmt.Errorf("figures: nil population")
	}
	counts := pop.CountByContinent()
	total := 0
	for _, n := range counts {
		total += n
	}
	lines := []string{fmt.Sprintf("%d public probes in %d countries", total, len(pop.Countries()))}
	for _, ct := range geo.Continents() {
		lines = append(lines, fmt.Sprintf("  %-16s %4d probes (%.1f%%)",
			ct.String(), counts[ct], 100*float64(counts[ct])/float64(total)))
	}
	return lines, nil
}

// Figure4Lines renders per-country minimum latency bands from the
// suite's proximity report.
func Figure4Lines(rep *core.ProximityReport) []string {
	bands := rep.CountByBand()
	lines := []string{fmt.Sprintf("countries: <10ms=%d  10-20ms=%d  20-100ms=%d  >=100ms=%d  (within PL: %d/%d)",
		bands[core.BandSub10], bands[core.Band10to20], bands[core.Band20to100],
		bands[core.BandOver100], rep.CountWithin(core.PLms), len(rep.Rows))}
	return append(lines, rep.Format()...)
}

// CDFLines renders one CDF report at the canonical thresholds — Figure 5
// from the per-probe minimum-RTT report, Figure 6 from the
// closest-datacenter full distribution.
func CDFLines(rep *core.CDFReport) ([]string, error) {
	marks := []float64{10, core.MTPms, 50, core.PLms, 150, core.HRTms}
	var lines []string
	for _, ct := range rep.Continents() {
		d, _ := rep.Dist(ct)
		row := fmt.Sprintf("%-14s n=%-8d", ct.String(), d.N())
		for _, m := range marks {
			frac, err := rep.FractionWithin(ct, m)
			if err != nil {
				return nil, err
			}
			row += fmt.Sprintf("  P(<=%gms)=%.2f", m, frac)
		}
		lines = append(lines, row)
	}
	return lines, nil
}

// Figure7Lines renders the wired-vs-wireless comparison from the suite's
// last-mile report.
func Figure7Lines(rep *core.LastMileReport) ([]string, error) {
	ratio, err := rep.MedianRatio()
	if err != nil {
		return nil, err
	}
	added, err := rep.AddedLatencyMs()
	if err != nil {
		return nil, err
	}
	lines := []string{fmt.Sprintf("wireless/wired ratio=%.2fx  added=%.1fms", ratio, added)}
	n := min(len(rep.Wired), len(rep.Wireless))
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("week %2d  wired=%.1fms  wireless=%.1fms",
			i+1, rep.Wired[i].Median, rep.Wireless[i].Median))
	}
	return lines, nil
}

// Figure8 derives the feasibility zone from the measured last-mile data and
// evaluates the application catalog against it.
func Figure8(lastMile *core.LastMileReport, catalog *apps.Catalog) (*apps.FeasibilityReport, []string, error) {
	if lastMile == nil || catalog == nil {
		return nil, nil, fmt.Errorf("figures: nil inputs")
	}
	added, err := lastMile.AddedLatencyMs()
	if err != nil {
		return nil, nil, err
	}
	zone, err := apps.DeriveZone(added, core.HRTms, 1)
	if err != nil {
		return nil, nil, err
	}
	rep, err := apps.Feasibility(catalog, zone)
	if err != nil {
		return nil, nil, err
	}
	lines := []string{fmt.Sprintf("feasibility zone: latency [%.1f, %.1f]ms x data >= %.1fGB/entity",
		zone.LatencyFloorMs, zone.LatencyCeilMs, zone.BandwidthFloorGB)}
	lines = append(lines, rep.Format()...)
	lines = append(lines, fmt.Sprintf("market in-zone=$%.0fB  out-zone=$%.0fB", rep.MarketInZone, rep.MarketOutZone))
	return rep, lines, nil
}
