// Feasibility: reproduce the paper's application analysis — place the
// Figure 2 catalog into quadrants, measure the last-mile penalty from a
// synthesized campaign, derive the Figure 8 feasibility zone from it, and
// report which applications a general-purpose edge actually helps.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/atlas"
	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/results"
	"repro/internal/world"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	catalog := apps.Paper()

	// Figure 2: the requirement map.
	fmt.Println("== Application requirements (Figure 2) ==")
	lines, err := figures.Figure2(catalog)
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Println(l)
	}

	// Synthesize a small campaign to measure the wireless penalty.
	w, err := world.Build(world.Config{Seed: 1, Probes: 400})
	if err != nil {
		return err
	}
	cfg := atlas.TestCampaign()
	var mem results.Memory
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, mem.Add); err != nil {
		return err
	}
	suite, err := core.ScanMemory(&mem, w.Index, cfg.Start, 7*24*time.Hour, core.PassLastMile)
	if err != nil {
		return err
	}
	lastMile := suite.LastMile
	added, err := lastMile.AddedLatencyMs()
	if err != nil {
		return err
	}
	fmt.Printf("\nmeasured wireless last-mile penalty: %.1f ms\n", added)

	// Figure 8: the feasibility zone derived from the measurement.
	fmt.Println("\n== Feasibility zone (Figure 8) ==")
	rep, lines8, err := figures.Figure8(lastMile, catalog)
	if err != nil {
		return err
	}
	for _, l := range lines8 {
		fmt.Println(l)
	}

	// The bandwidth side of the zone: which deployments actually congest a
	// metro backhaul without edge aggregation?
	fmt.Println("\n== Backhaul demand per application (1 GB/entity justification) ==")
	bw, err := bandwidth.Justify(catalog, bandwidth.Metro(), 0.95)
	if err != nil {
		return err
	}
	for _, l := range bw.Format() {
		fmt.Println(l)
	}
	breakEven, err := bandwidth.BreakEvenGBPerEntity(bandwidth.Metro(), 1.0)
	if err != nil {
		return err
	}
	fmt.Printf("metro break-even: %.2f GB/entity/day saturates the backhaul (paper threshold: ~1 GB)\n", breakEven)

	fmt.Println("\nconclusion:")
	fmt.Printf("  apps helped by a general-purpose edge: %v\n", rep.InZone())
	fmt.Printf("  their market ($%.0fB) pales against the out-of-zone market ($%.0fB)\n",
		rep.MarketInZone, rep.MarketOutZone)
	return nil
}
