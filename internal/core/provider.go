package core

import "repro/internal/stats"

// ProviderRow summarizes one cloud operator's reachability over the
// campaign: the per-sample latency distribution of all delivered pings
// toward that provider's regions.
type ProviderRow struct {
	Provider string        `json:"provider"`
	Summary  stats.Summary `json:"summary"`
	Lost     int           `json:"lost"`
	LossRate float64       `json:"loss_rate"`
}

// ProviderReport extends the paper's §4.1 observation — private-backbone
// operators ride straighter paths than public-transit ones — into a
// per-provider latency comparison.
type ProviderReport struct {
	Rows []ProviderRow `json:"rows"` // sorted by median RTT
}
