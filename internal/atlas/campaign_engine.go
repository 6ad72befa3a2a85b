package atlas

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/results"
)

// CampaignOptions are a campaign's execution options. The zero value is
// one worker, no checkpoints.
type CampaignOptions struct {
	// Workers is the shard/worker count; values <= 1 run one. The merged
	// output is byte-identical for every worker count.
	Workers int

	// CheckpointPath enables periodic checkpointing (requires Commit).
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in merged rounds
	// (default engine.DefaultCheckpointEvery).
	CheckpointEvery int
	// Commit flushes the sink and reports its durable byte offset; called
	// at every checkpoint.
	Commit engine.CommitFunc
	// Fingerprint identifies the run configuration inside checkpoints;
	// see CampaignConfig.Fingerprint.
	Fingerprint string

	// StartRound/StartSamples resume an interrupted run from a checkpoint
	// watermark: rounds before StartRound are skipped and StartSamples
	// seeds the emitted-sample total.
	StartRound   int
	StartSamples uint64

	// OnCheckpoint, when set, runs after each checkpoint is durably
	// written, with the checkpointed round and committed sink offset; the
	// sink is quiesced while it runs (see engine.Config.OnCheckpoint).
	OnCheckpoint func(round int, offset int64)

	// OnRound, when set, observes each merged round (its index and sample
	// count) from the merger goroutine, after metrics are updated.
	OnRound func(round int, samples uint64)

	// EngineMetrics, when set, receives shard progress, queue depth,
	// merge stall and checkpoint instruments.
	EngineMetrics *engine.Metrics

	// Log, when set, receives the engine's structured events (checkpoint
	// writes, run completion).
	Log *slog.Logger
}

// RunCampaignOpts runs the campaign on the parallel engine: the public
// probe population is split into contiguous shards (one per worker),
// every shard synthesizes its rounds on its own goroutine, and the
// engine merges shard batches round-major in shard order — the same
// sample stream byte for byte for any worker count, because each
// sample's value depends only on the seeded latency model and the
// sample's (probe, target, time) identity. A path error fails the run
// without sinking any of its (shard, round) batch.
func (p *Platform) RunCampaignOpts(ctx context.Context, cfg CampaignConfig, opts CampaignOptions, sink func(results.Sample) error) (uint64, error) {
	probes := len(p.Population.Public())
	workers := min(max(opts.Workers, 1), probes)
	gen, err := p.ShardGen(cfg, workers)
	if err != nil {
		return 0, err
	}
	rounds := cfg.Rounds()
	m := p.Metrics
	span := obs.From(ctx)
	span.SetAttr("rounds", rounds)
	span.SetAttr("probes", probes)
	span.SetAttr("workers", workers)
	if opts.StartRound > 0 {
		span.SetAttr("resume_round", opts.StartRound)
	}
	if m != nil {
		m.RoundsTotal.Set(float64(rounds))
		m.RoundsDone.Set(float64(opts.StartRound))
	}

	// Upper bound on one (shard, round) cell, so worker batch buffers
	// never reallocate mid-round.
	hint := (probes + workers - 1) / workers * cfg.TargetsPerRound

	n, err := engine.Run(ctx, engine.Config{
		Workers:         workers,
		Rounds:          rounds,
		BatchHint:       hint,
		StartRound:      opts.StartRound,
		StartSamples:    opts.StartSamples,
		CheckpointPath:  opts.CheckpointPath,
		CheckpointEvery: opts.CheckpointEvery,
		Commit:          opts.Commit,
		Fingerprint:     opts.Fingerprint,
		OnCheckpoint:    opts.OnCheckpoint,
		Metrics:         opts.EngineMetrics,
		Log:             opts.Log,
		Gen:             gen,
		Sink:            sink,
		OnRound: func(round int, samples uint64) {
			// Rounds are generated concurrently, so per-round spans mark
			// merge completion events rather than synthesis intervals.
			rs := span.Child("round")
			rs.SetAttr("round", round)
			rs.SetAttr("at", cfg.RoundTime(round).Format(time.RFC3339))
			rs.SetAttr("samples", samples)
			rs.End()
			if m != nil {
				m.RoundsDone.Set(float64(round + 1))
			}
			if opts.OnRound != nil {
				opts.OnRound(round, samples)
			}
		},
	})
	span.SetAttr("samples", n)
	return n, err
}

// ShardGen returns an engine.GenFunc that synthesizes the cells of an
// n-way contiguous shard partition of the public probe population —
// the workload RunCampaignOpts hands the engine, which the benchmark's
// dataset builder also drives one round at a time between timed
// operations. The shard count, like the worker count, never affects the
// merged byte stream: concatenating every shard's round in shard order
// reproduces the one-shard round.
func (p *Platform) ShardGen(cfg CampaignConfig, shards int) (engine.GenFunc, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	probes := p.Population.Public()
	if len(probes) == 0 {
		return nil, fmt.Errorf("atlas: no public probes")
	}
	if shards < 1 || shards > len(probes) {
		return nil, fmt.Errorf("atlas: shard count %d outside [1, %d]", shards, len(probes))
	}
	parts := shardProbes(probes, shards)
	tally := p.newCampaignTally()
	return func(ctx context.Context, shard, round int, emit func(results.Sample) error) error {
		if shard < 0 || shard >= len(parts) {
			return fmt.Errorf("atlas: shard %d outside the %d-way partition", shard, len(parts))
		}
		_, err := p.synthesizeRound(ctx, cfg, round, parts[shard], tally, emit)
		return err
	}, nil
}

// shardProbes splits the probe slice into n contiguous chunks whose sizes
// differ by at most one, preserving ID order. Shard boundaries depend on
// n, but the round-major shard-order merge makes the concatenated stream
// independent of it.
func shardProbes(probes []*probe.Probe, n int) [][]*probe.Probe {
	out := make([][]*probe.Probe, 0, n)
	base, rem := len(probes)/n, len(probes)%n
	i := 0
	for s := 0; s < n; s++ {
		size := base
		if s < rem {
			size++
		}
		out = append(out, probes[i:i+size])
		i += size
	}
	return out
}

// Fingerprint identifies a campaign execution for checkpoint
// compatibility: the same (config, seed, census) produces the same
// fingerprint, and resuming under a different one is refused. The worker
// count is deliberately excluded — it does not affect the output.
func (c CampaignConfig) Fingerprint(seed uint64, probes int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%g|%d",
		seed, probes,
		c.Start.UTC().UnixNano(), c.End.UTC().UnixNano(), int64(c.Interval),
		c.TargetsPerRound, c.Participation, c.PingsPerTarget)
	return fmt.Sprintf("%016x", h.Sum64())
}
