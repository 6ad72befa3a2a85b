// Campaign: drive the measurement platform the way the paper's methodology
// does, but through the HTTP API — discover probes by country and tag,
// create ping measurements toward a cloud region, wait for results, and
// check the credit spend. Everything runs in-process: the example starts
// its own atlasd-equivalent server.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/atlas"
	"repro/internal/world"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w, err := world.Build(world.Config{Seed: 1, Probes: 400})
	if err != nil {
		return err
	}
	ledger := atlas.NewLedger()
	if err := ledger.Grant("research", 5000); err != nil {
		return err
	}
	live, err := atlas.NewLiveService(w.Platform, ledger, 1)
	if err != nil {
		return err
	}
	defer live.Close()
	srv, err := atlas.NewServer(w.Platform, ledger, live, nil, nil)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	fmt.Printf("platform API at %s\n", ts.URL)

	client, err := atlas.NewClient(ts.URL, "research", ts.Client())
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Discover wired probes in France, like the paper's tag filtering.
	probes, err := client.Probes(ctx, atlas.ProbeFilter{Country: "FR", Tag: "ethernet", Limit: 3})
	if err != nil {
		return err
	}
	if len(probes) == 0 {
		// Fall back to any French probes.
		if probes, err = client.Probes(ctx, atlas.ProbeFilter{Country: "FR", Limit: 3}); err != nil {
			return err
		}
	}
	ids := make([]int, 0, len(probes))
	for _, p := range probes {
		ids = append(ids, p.ID)
		fmt.Printf("probe %d in %s tags=%v\n", p.ID, p.Country, p.Tags)
	}

	// List regions and pick the Paris datacenters as targets.
	regions, err := client.Regions(ctx)
	if err != nil {
		return err
	}
	var targets []string
	for _, r := range regions {
		if r.Country == "FR" {
			targets = append(targets, r.Addr)
		}
	}
	fmt.Printf("measuring to %d French regions\n", len(targets))

	for _, target := range targets {
		id, err := client.CreateMeasurement(ctx, target, ids, 4, 5*time.Millisecond, 10*time.Second)
		if err != nil {
			return err
		}
		samples, err := client.WaitDone(ctx, id)
		if err != nil {
			return err
		}
		min, lost := 0.0, 0
		for _, s := range samples {
			if s.Lost {
				lost++
				continue
			}
			if min == 0 || s.RTTms < min {
				min = s.RTTms
			}
		}
		fmt.Printf("  %-22s %d samples, min %.1f ms, %d lost\n", target, len(samples), min, lost)
	}

	balance, spent, err := client.Credits(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("credits: balance=%d spent=%d\n", balance, spent)
	return nil
}
