package figures

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/atlas"
	"repro/internal/results"
	"repro/internal/world"
)

// buildFixture assembles a world with the given seed and census size and
// runs the standard test-scale campaign over it.
func buildFixture(ctx context.Context, seed uint64, probes int) (*fixture, error) {
	w, err := world.Build(world.Config{Seed: seed, Probes: probes})
	if err != nil {
		return nil, err
	}
	cfg := atlas.TestCampaign()
	var mem results.Memory
	if _, err := w.Platform.RunCampaign(ctx, cfg, mem.Add); err != nil {
		return nil, err
	}
	return &fixture{w: w, mem: &mem, cfg: cfg}, nil
}

// TestHeadlineStabilityAcrossSeeds re-runs the core headline numbers under
// three different world seeds: the paper's conclusions must not hinge on
// one lucky random draw.
func TestHeadlineStabilityAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed campaign sweep")
	}
	for _, seed := range []uint64{11, 22, 33} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			f, err := buildFixture(context.Background(), seed, 400)
			if err != nil {
				t.Fatal(err)
			}
			rep := scanned(t, f)
			rep4, rep7 := rep.Proximity, rep.LastMile
			// Figure 4 shape: a healthy sub-10ms block, a 10-20 tranche,
			// and a bounded >=100ms tail, every seed.
			bands := rep4.CountByBand()
			if bands[0] != 0 {
				t.Error("no-data band non-empty")
			}
			sub10 := rep4.CountWithin(10)
			if sub10 < 15 || sub10 > 60 {
				t.Errorf("seed %d: %d countries < 10ms", seed, sub10)
			}
			over := len(rep4.Rows) - rep4.CountWithin(100)
			if over < 3 || over > 45 {
				t.Errorf("seed %d: %d countries >= 100ms", seed, over)
			}
			// Figure 7 shape: the wireless penalty holds for every seed.
			ratio, err := rep7.MedianRatio()
			if err != nil {
				t.Fatal(err)
			}
			if ratio < 1.5 || ratio > 4.5 {
				t.Errorf("seed %d: wireless ratio %.2f", seed, ratio)
			}
		})
	}
}
