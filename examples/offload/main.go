// Offload: the §5 "Computing power" consideration — with RTTs taken from a
// measured campaign, decide per task whether to run it on-device, at a
// hypothetical edge, or in the cloud, and locate the crossover where the
// cloud's faster processors beat the edge's latency advantage.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/atlas"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/offload"
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
	// Measure the RTT landscape: a small campaign gives the wireless edge
	// RTT (last-mile floor) and the cloud RTT (EU nearest-DC median).
	w, err := world.Build(world.Config{Seed: 1, Probes: 400})
	if err != nil {
		return err
	}
	cfg := atlas.TestCampaign()
	var mem results.Memory
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, mem.Add); err != nil {
		return err
	}
	rep, err := core.ScanMemory(&mem, w.Index, cfg.Start, cfg.Interval*8, core.PassLastMile|core.PassFullDist)
	if err != nil {
		return err
	}
	edgeRTT, err := rep.LastMile.AddedLatencyMs()
	if err != nil {
		return err
	}
	cloudRTT, err := rep.FullDist.Quantile(geo.Europe, 0.5)
	if err != nil {
		return err
	}
	fmt.Printf("measured RTTs: edge (wireless last mile) %.1f ms, cloud (EU median) %.1f ms\n\n",
		edgeRTT, cloudRTT)

	venues := offload.ReferenceVenues(edgeRTT, cloudRTT, 50)
	tasks := []offload.Task{
		{Name: "voice command", InputMB: 0.05, GFLOP: 0.5, DeadlineMs: 300},
		{Name: "AR frame analysis", InputMB: 0.5, GFLOP: 5, DeadlineMs: 50},
		{Name: "photo enhancement", InputMB: 4, GFLOP: 40, DeadlineMs: 2000},
		{Name: "video inference", InputMB: 8, GFLOP: 400, DeadlineMs: 5000},
	}
	fmt.Println("task                  best-venue  completion  meets-deadline")
	for _, task := range tasks {
		choices, err := offload.Decide(task, venues)
		if err != nil {
			return err
		}
		best := choices[0]
		fmt.Printf("%-20s  %-10s %9.1fms  %v\n",
			task.Name, best.Venue.Name, best.CompletionMs, best.MeetsDeadline)
	}

	// Where does the cloud overtake the edge?
	cross, err := offload.CrossoverGFLOP(1, venues[1], venues[2])
	if err != nil {
		return err
	}
	fmt.Printf("\nfor 1 MB inputs, the cloud overtakes the edge beyond %.1f GFLOP of compute\n", cross)
	fmt.Println("(§5: cloud processing power \"may far exceed the network latency gains\")")
	return nil
}
