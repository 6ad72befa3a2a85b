// Lastmile: reproduce the Figure 7 methodology end to end — generate a
// campaign, split probes into wired and wireless sets by user tag, and
// compare their latency to the nearest cloud region over time.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/atlas"
	"repro/internal/core"
	"repro/internal/probe"
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
	w, err := world.Build(world.Config{Seed: 1, Probes: 600})
	if err != nil {
		return err
	}
	wired := w.Probes.WithAnyTag(probe.WiredTags)
	wireless := w.Probes.WithAnyTag(probe.WirelessTags)
	fmt.Printf("probe sets by tag: %d wired, %d wireless\n", len(wired), len(wireless))

	cfg := atlas.TestCampaign()
	var mem results.Memory
	n, err := w.Platform.RunCampaign(context.Background(), cfg, mem.Add)
	if err != nil {
		return err
	}
	fmt.Printf("campaign: %d samples over %d rounds\n", n, cfg.Rounds())

	suite, err := core.ScanMemory(&mem, w.Index, cfg.Start, cfg.Interval*8, core.PassLastMile) // daily bins
	if err != nil {
		return err
	}
	rep := suite.LastMile
	days := min(len(rep.Wired), len(rep.Wireless))
	fmt.Println("\nday  wired-median  wireless-median (to nearest region, tier-1/2 countries)")
	for i := 0; i < days; i++ {
		fmt.Printf("%3d  %9.1f ms  %12.1f ms\n", i+1, rep.Wired[i].Median, rep.Wireless[i].Median)
	}

	ratio, err := rep.MedianRatio()
	if err != nil {
		return err
	}
	added, err := rep.AddedLatencyMs()
	if err != nil {
		return err
	}
	fmt.Printf("\nwireless takes %.1fx longer (adds %.1f ms) to reach the nearest cloud region\n", ratio, added)
	fmt.Println("paper reports ~2.5x and 10-40 ms added (§4.3)")
	return nil
}
