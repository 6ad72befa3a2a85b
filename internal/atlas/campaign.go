package atlas

import (
	"context"
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/results"
)

// CampaignConfig describes a long-running measurement campaign following
// the paper's methodology (§4.1): every Interval, each participating probe
// pings TargetsPerRound of its same-continent regions (rotating through the
// whole target list over successive rounds, so every probe eventually
// covers every target).
type CampaignConfig struct {
	Start    time.Time
	End      time.Time
	Interval time.Duration
	// TargetsPerRound is how many regions a probe pings per round.
	TargetsPerRound int
	// Participation thins rounds: a probe takes part in a round with this
	// probability (deterministic in the probe and round). The paper's
	// credit quotas have the same effect; 1 means every probe every round.
	Participation float64
	// PingsPerTarget is the ping repetition per (probe, target, round);
	// the minimum RTT of the repetitions is recorded, like ping -c N.
	PingsPerTarget int
}

// PaperCampaign is the paper-scale configuration: nine months from
// September 2019 at three-hour rounds, tuned to land near the reported 3.2M
// datapoints.
func PaperCampaign() CampaignConfig {
	return CampaignConfig{
		Start:           time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC),
		Interval:        3 * time.Hour,
		TargetsPerRound: 1,
		Participation:   0.45,
		PingsPerTarget:  3,
	}
}

// TestCampaign is a small configuration for tests, examples and benches:
// 30 days, ~400x smaller than the paper run but with the same shape.
func TestCampaign() CampaignConfig {
	return CampaignConfig{
		Start:           time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2019, 10, 1, 0, 0, 0, 0, time.UTC),
		Interval:        3 * time.Hour,
		TargetsPerRound: 2,
		Participation:   1,
		PingsPerTarget:  1,
	}
}

// Validate checks the campaign parameters.
func (c CampaignConfig) Validate() error {
	if c.Start.IsZero() || c.End.IsZero() || !c.End.After(c.Start) {
		return fmt.Errorf("atlas: invalid campaign window [%v, %v]", c.Start, c.End)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("atlas: non-positive interval %v", c.Interval)
	}
	if c.TargetsPerRound <= 0 {
		return fmt.Errorf("atlas: non-positive targets per round %d", c.TargetsPerRound)
	}
	if c.Participation <= 0 || c.Participation > 1 {
		return fmt.Errorf("atlas: participation %v out of (0,1]", c.Participation)
	}
	if c.PingsPerTarget <= 0 {
		return fmt.Errorf("atlas: non-positive pings per target %d", c.PingsPerTarget)
	}
	return nil
}

// Rounds returns the number of measurement rounds in the window.
func (c CampaignConfig) Rounds() int {
	return int(c.End.Sub(c.Start) / c.Interval)
}

// Meta converts the config into dataset metadata.
func (c CampaignConfig) Meta(seed uint64, probes, regions int) results.Meta {
	return results.Meta{
		Seed:          seed,
		Start:         c.Start,
		End:           c.End,
		IntervalHours: c.Interval.Hours(),
		Probes:        probes,
		Regions:       regions,
	}
}

// RunCampaign synthesizes the campaign dataset directly from the latency
// model (the fast path: no packet machinery), streaming every sample to
// sink in deterministic order. Privileged probes are excluded, mirroring
// the paper's filtering. It returns the number of samples emitted.
//
// Observability: a span carried in ctx (obs.ContextWith) gets one child
// span per round beside the engine's stage spans; p.Metrics, when set,
// receives round progress gauges and per-continent sample tallies as the
// campaign runs.
//
// RunCampaign is RunCampaignOpts with one worker: every campaign runs
// through internal/engine.
func (p *Platform) RunCampaign(ctx context.Context, cfg CampaignConfig, sink func(results.Sample) error) (uint64, error) {
	return p.RunCampaignOpts(ctx, cfg, CampaignOptions{}, sink)
}

// RoundTime returns the timestamp of one measurement round.
func (c CampaignConfig) RoundTime(round int) time.Time {
	return c.Start.Add(time.Duration(round) * c.Interval)
}

// ctxCheckEvery bounds how many samples a round synthesizes between
// context checks: at paper scale one round is ~3,300 probes × targets, so
// a per-round check alone would make cancellation (SIGINT) lag by whole
// rounds.
const ctxCheckEvery = 256

// campaignTally holds the per-continent sample counters resolved once up
// front: the sample loop is the hottest path in the system (3.2M
// iterations at paper scale), and the eager read-only array is also what
// makes the tally safe to share across engine shards.
type campaignTally struct {
	samples [geo.SouthAmerica + 1]*obs.Counter // indexed by Continent
	lost    *obs.Counter
}

// newCampaignTally resolves the counters, or returns nil without metrics.
func (p *Platform) newCampaignTally() *campaignTally {
	if p.Metrics == nil {
		return nil
	}
	t := &campaignTally{lost: p.Metrics.Lost}
	for _, ct := range geo.Continents() {
		t.samples[ct] = p.Metrics.Samples.With(ct.Code())
	}
	return t
}

// localTally accumulates one round's counts on the stack so the shared
// atomic counters are touched once per round rather than once per
// sample: with eight shard workers incrementing the same few cache
// lines, per-sample atomics measurably erode worker scaling.
type localTally struct {
	samples [geo.SouthAmerica + 1]uint64
	lost    uint64
}

// flushTo folds the local counts into the shared counters.
func (l *localTally) flushTo(t *campaignTally) {
	for ct, n := range l.samples {
		if n > 0 {
			t.samples[ct].Add(n)
		}
	}
	if l.lost > 0 {
		t.lost.Add(l.lost)
	}
}

// synthesizeRound emits one round's samples for the given probe slice in
// deterministic (probe, target) order. It is the engine's shard
// workload: a shard is just a contiguous sub-slice of the public probe
// population, so concatenating shard outputs in shard order reproduces
// the one-shard stream exactly.
// It resolves a batch of pairs' paths at a time (paths.resolvePaths),
// then samples and emits them in order; a path error ends the round
// after the samples before it, as resolving one pair at a time would.
func (p *Platform) synthesizeRound(ctx context.Context, cfg CampaignConfig, round int, probes []*probe.Probe, paths *pathTable, tally *campaignTally, emit func(results.Sample) error) (uint64, error) {
	at := cfg.RoundTime(round)
	var emitted uint64
	var local localTally
	if tally != nil {
		defer local.flushTo(tally)
	}
	var batch [pathBatch]pathJob
	jobs := batch[:0]
	sample := func() error {
		n, resolveErr := paths.resolvePaths(jobs)
		for _, j := range jobs[:n] {
			s := results.Sample{ProbeID: j.pr.ID, Region: j.r.Addr(), Time: at}
			if ms, lost := j.path.MinRTT(at, cfg.PingsPerTarget); lost {
				s.Lost = true
			} else {
				s.RTTms = ms
			}
			if err := emit(s); err != nil {
				return err
			}
			emitted++
			if emitted%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if tally != nil {
				local.samples[j.pr.Continent]++
				if s.Lost {
					local.lost++
				}
			}
		}
		jobs = jobs[:0]
		return resolveErr
	}
	for _, pr := range probes {
		targets := p.Targets(pr)
		if len(targets) == 0 {
			continue
		}
		if cfg.Participation < 1 && !participates(pr.ID, round, cfg.Participation) {
			continue
		}
		for k := 0; k < cfg.TargetsPerRound; k++ {
			// Rotate deterministically through the target list so each
			// probe covers every region over the campaign.
			idx := (round*cfg.TargetsPerRound + k + pr.ID) % len(targets)
			if jobs = append(jobs, pathJob{pr: pr, r: targets[idx]}); len(jobs) == pathBatch {
				if err := sample(); err != nil {
					return emitted, err
				}
			}
		}
	}
	return emitted, sample()
}

// pathBatch is how many pairs synthesizeRound resolves at once: enough
// misses to keep the memory system busy, few enough to stay in L1.
const pathBatch = 32

// participates deterministically thins probe-rounds: it hashes (probe,
// round) into [0,1) and compares against the participation fraction.
func participates(probeID, round int, frac float64) bool {
	h := uint64(probeID)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return float64(h>>11)/(1<<53) < frac
}
