package figures

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/apps"
	"repro/internal/core"
)

// CSV writers: the machine-readable form of each figure, for external
// plotting tools. Each writes a header row followed by data rows.

func writeAll(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Figure1CSV writes the zeitgeist series.
func Figure1CSV(w io.Writer, s *Series) error {
	if s == nil {
		return errors.New("figures: nil series")
	}
	rows := [][]string{{"year", "edge_pubs", "cloud_pubs", "edge_search", "cloud_search", "era"}}
	eras := s.Eras()
	for _, p := range s.Points {
		rows = append(rows, []string{
			strconv.Itoa(p.Year),
			strconv.Itoa(p.EdgePubs),
			strconv.Itoa(p.CloudPubs),
			fmt.Sprintf("%.2f", p.EdgeSearch),
			fmt.Sprintf("%.2f", p.CloudSearch),
			string(eras[p.Year]),
		})
	}
	return writeAll(w, rows)
}

// Figure4CSV writes the per-country proximity rows.
func Figure4CSV(w io.Writer, rep *core.ProximityReport) error {
	if rep == nil {
		return errors.New("figures: nil report")
	}
	rows := [][]string{{"country", "name", "continent", "min_rtt_ms", "band"}}
	for _, r := range rep.Rows {
		rows = append(rows, []string{
			r.Country, r.Name, r.Continent.Code(),
			fmt.Sprintf("%.2f", r.MinRTTms), r.Band.String(),
		})
	}
	return writeAll(w, rows)
}

// CDFCSV writes a continent-grouped CDF sampled on the default grid; it
// serves Figures 5 and 6.
func CDFCSV(w io.Writer, rep *core.CDFReport) error {
	if rep == nil {
		return errors.New("figures: nil report")
	}
	rows := [][]string{{"continent", "rtt_ms", "fraction"}}
	grid := core.DefaultGrid()
	for _, ct := range rep.Continents() {
		curve, err := rep.Curve(ct, grid)
		if err != nil {
			return err
		}
		for _, pt := range curve {
			rows = append(rows, []string{
				ct.Code(), fmt.Sprintf("%.0f", pt.X), fmt.Sprintf("%.4f", pt.P),
			})
		}
	}
	return writeAll(w, rows)
}

// Figure7CSV writes the wired/wireless weekly series.
func Figure7CSV(w io.Writer, rep *core.LastMileReport) error {
	if rep == nil {
		return errors.New("figures: nil report")
	}
	rows := [][]string{{"week_start", "class", "median_ms", "p25_ms", "p75_ms", "samples"}}
	for _, p := range rep.Wired {
		rows = append(rows, []string{
			p.Start.Format("2006-01-02"), "wired",
			fmt.Sprintf("%.2f", p.Median), fmt.Sprintf("%.2f", p.P25),
			fmt.Sprintf("%.2f", p.P75), strconv.Itoa(p.N),
		})
	}
	for _, p := range rep.Wireless {
		rows = append(rows, []string{
			p.Start.Format("2006-01-02"), "wireless",
			fmt.Sprintf("%.2f", p.Median), fmt.Sprintf("%.2f", p.P25),
			fmt.Sprintf("%.2f", p.P75), strconv.Itoa(p.N),
		})
	}
	return writeAll(w, rows)
}

// Figure8CSV writes the feasibility verdicts.
func Figure8CSV(w io.Writer, rep *apps.FeasibilityReport) error {
	if rep == nil {
		return errors.New("figures: nil report")
	}
	rows := [][]string{{"app", "quadrant", "market_busd", "latency_gain", "bandwidth_gain", "in_zone"}}
	for _, v := range rep.Verdicts {
		rows = append(rows, []string{
			v.App.Name, v.App.Quadrant().String(),
			fmt.Sprintf("%g", v.App.MarketBUSD),
			strconv.FormatBool(v.LatencyGain),
			strconv.FormatBool(v.BandwidthGain),
			strconv.FormatBool(v.InZone),
		})
	}
	return writeAll(w, rows)
}
