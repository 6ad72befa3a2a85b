// Package whatif runs counterfactual campaigns for the paper's §5
// discussion: what happens to the wired/wireless gap and to the edge
// feasibility zone if the last mile improves — e.g., if 5G delivers its
// promised 1-10 ms access latency, or if bufferbloat is engineered away?
// The paper argues the feasibility zone's lower edge is pinned to the
// wireless last mile; these scenarios move that edge and measure what
// enters the zone.
package whatif

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/atlas"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/results"
)

// Scenario is one counterfactual network configuration.
type Scenario struct {
	Name  string
	Model netem.Config
}

// Baseline is today's network as calibrated in DESIGN.md §5.
func Baseline() Scenario {
	return Scenario{Name: "baseline", Model: netem.DefaultConfig()}
}

// FiveG assumes 5G delivers its promised 1-10 ms wireless access latency
// (§5 cites the IMT-2020 1 ms target while noting early deployments fall
// short) with bufferbloat largely engineered away.
func FiveG() Scenario {
	cfg := netem.DefaultConfig()
	cfg.LastMileWireless = netem.Range{Lo: 1, Hi: 10}
	cfg.BloatProb = cfg.BloatWiredProb
	cfg.LossWireless = cfg.LossWired * 2
	return Scenario{Name: "5g-promised", Model: cfg}
}

// FiveGEarly models the sub-optimal early 5G deployments the paper cites
// [49, 71]: better than LTE, far from the 1 ms promise.
func FiveGEarly() Scenario {
	cfg := netem.DefaultConfig()
	cfg.LastMileWireless = netem.Range{Lo: 6, Hi: 22}
	cfg.BloatProb /= 2
	return Scenario{Name: "5g-early", Model: cfg}
}

// NoBufferbloat isolates the queueing pathology: today's access latencies
// with bufferbloat eliminated.
func NoBufferbloat() Scenario {
	cfg := netem.DefaultConfig()
	cfg.BloatProb = 0
	cfg.BloatWiredProb = 0
	return Scenario{Name: "no-bufferbloat", Model: cfg}
}

// Outcome summarizes one scenario's campaign.
type Outcome struct {
	Scenario        string   `json:"scenario"`
	WirelessRatio   float64  `json:"wireless_ratio"`    // wireless/wired median ratio
	WirelessAddedMs float64  `json:"wireless_added_ms"` // feasibility-zone latency floor
	EUWithinMTP     float64  `json:"eu_within_mtp"`     // per-probe min-RTT fraction
	InZone          []string `json:"in_zone"`           // apps inside the derived zone
	MarketInZoneB   float64  `json:"market_in_zone_busd"`
}

// Report compares scenarios.
type Report struct {
	Outcomes []Outcome `json:"outcomes"` // in input order
}

// Config sizes the counterfactual campaigns.
type Config struct {
	Seed     uint64
	Probes   int
	Campaign atlas.CampaignConfig
}

// Run executes every scenario's campaign over an identical world (same
// probes, same regions, same seed — only the network model changes) and
// reports the resulting last-mile gap and feasibility zone.
func Run(ctx context.Context, cfg Config, scenarios ...Scenario) (*Report, error) {
	if len(scenarios) == 0 {
		return nil, errors.New("whatif: no scenarios")
	}
	if cfg.Probes <= 0 {
		return nil, fmt.Errorf("whatif: non-positive probe count %d", cfg.Probes)
	}
	db := geo.World()
	catalog, err := cloud.Deployment(db)
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
	idx, err := core.NewIndex(pop, db)
	if err != nil {
		return nil, err
	}
	appCatalog := apps.Paper()

	rep := &Report{}
	for _, sc := range scenarios {
		outcome, err := runScenario(ctx, sc, cfg, pop, catalog, idx, appCatalog)
		if err != nil {
			return nil, fmt.Errorf("whatif: scenario %s: %w", sc.Name, err)
		}
		rep.Outcomes = append(rep.Outcomes, outcome)
	}
	return rep, nil
}

func runScenario(ctx context.Context, sc Scenario, cfg Config, pop *probe.Population,
	catalog *cloud.Catalog, idx *core.Index, appCatalog *apps.Catalog) (Outcome, error) {
	model, err := netem.NewModel(sc.Model, cfg.Seed)
	if err != nil {
		return Outcome{}, err
	}
	platform, err := atlas.NewPlatform(pop, catalog, model)
	if err != nil {
		return Outcome{}, err
	}
	var mem results.Memory
	if _, err := platform.RunCampaign(ctx, cfg.Campaign, mem.Add); err != nil {
		return Outcome{}, err
	}

	rep, err := core.ScanMemory(&mem, idx, cfg.Campaign.Start, 7*24*time.Hour, core.PassLastMile|core.PassMinRTT)
	if err != nil {
		return Outcome{}, err
	}
	ratio, err := rep.LastMile.MedianRatio()
	if err != nil {
		return Outcome{}, err
	}
	added, err := rep.LastMile.AddedLatencyMs()
	if err != nil {
		return Outcome{}, err
	}
	eu, err := rep.MinRTT.FractionWithin(geo.Europe, core.MTPms)
	if err != nil {
		return Outcome{}, err
	}

	// A better last mile lowers the feasibility zone's floor. Clamp at
	// 1 ms: even a perfect access link leaves some latency.
	floor := added
	if floor < 1 {
		floor = 1
	}
	zone, err := apps.DeriveZone(floor, core.HRTms, 1)
	if err != nil {
		return Outcome{}, err
	}
	feas, err := apps.Feasibility(appCatalog, zone)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Scenario:        sc.Name,
		WirelessRatio:   ratio,
		WirelessAddedMs: added,
		EUWithinMTP:     eu,
		InZone:          feas.InZone(),
		MarketInZoneB:   feas.MarketInZone,
	}, nil
}

// Format renders the comparison as text lines.
func (r *Report) Format() []string {
	lines := []string{"scenario         wireless-ratio  added-ms  EU<=MTP  in-zone-market  in-zone-apps"}
	for _, o := range r.Outcomes {
		lines = append(lines, fmt.Sprintf("%-16s %13.2fx %8.1f  %7.2f  $%12.0fB  %d",
			o.Scenario, o.WirelessRatio, o.WirelessAddedMs, o.EUWithinMTP, o.MarketInZoneB, len(o.InZone)))
	}
	return lines
}
