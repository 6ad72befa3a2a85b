// Package world assembles the standard reproduction environment — country
// database, cloud catalog, probe census, latency model, platform, analysis
// index — from one seed, so commands, examples, and benchmarks all build
// the same world the same way.
package world

import (
	"fmt"

	"repro/internal/atlas"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/probe"
)

// Config selects the world size and randomness.
type Config struct {
	Seed   uint64 // drives both probe placement and the latency model
	Probes int    // census size (paper: 3300)
}

// World bundles the assembled components.
type World struct {
	Countries *geo.DB
	Catalog   *cloud.Catalog
	Probes    *probe.Population
	Platform  *atlas.Platform
	Index     *core.Index
}

// Build assembles a world.
func Build(cfg Config) (*World, error) {
	if cfg.Probes <= 0 {
		return nil, fmt.Errorf("world: non-positive probe count %d", cfg.Probes)
	}
	db := geo.World()
	cat, err := cloud.Deployment(db)
	if err != nil {
		return nil, err
	}
	gen := probe.DefaultGenConfig()
	gen.Seed = int64(cfg.Seed)
	gen.Count = cfg.Probes
	pop, err := probe.Generate(db, gen)
	if err != nil {
		return nil, err
	}
	model, err := netem.NewModel(netem.DefaultConfig(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	platform, err := atlas.NewPlatform(pop, cat, model)
	if err != nil {
		return nil, err
	}
	idx, err := core.NewIndex(pop, db)
	if err != nil {
		return nil, err
	}
	return &World{
		Countries: db,
		Catalog:   cat,
		Probes:    pop,
		Platform:  platform,
		Index:     idx,
	}, nil
}
