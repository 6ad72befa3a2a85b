// Package engine is the parallel campaign execution engine: it shards a
// round-structured workload across a worker pool, runs each shard on its
// own goroutine with its own batched sample stream, and merges shard
// outputs into the sink in canonical (round-major, shard-ascending) order.
// Because the merge order reconstructs the serial iteration order exactly,
// the emitted dataset is byte-identical to a single-goroutine run for any
// worker count — the seeded-PRNG determinism the paper's methodology
// relies on survives parallelism.
//
// The engine also owns restartability: it periodically persists a small
// JSON checkpoint (completed-round watermark per shard plus the sink's
// durable byte offset) so an interrupted multi-month run resumes from the
// last checkpoint instead of restarting, and applies backpressure through
// bounded per-shard queues.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/results"
)

// GenFunc synthesizes the samples of one (shard, round) cell, emitting
// them in deterministic order. It must be safe for concurrent calls with
// distinct shards and must not retain the emitted samples.
type GenFunc func(ctx context.Context, shard, round int, emit func(results.Sample) error) error

// CommitFunc makes everything written to the sink so far durable and
// returns the resulting byte offset. The engine calls it before writing a
// checkpoint so the recorded offset never points past flushed data.
type CommitFunc func() (int64, error)

// Defaults for the tunable knobs; zero values in Config select these.
const (
	DefaultQueueDepth      = 4
	DefaultCheckpointEvery = 16
)

// Config describes one engine run.
type Config struct {
	// Workers is the shard/worker count; values < 1 run one shard.
	Workers int
	// Rounds is the total round count of the campaign window.
	Rounds int
	// StartRound is the first round to execute (resume watermark + 1).
	StartRound int
	// StartSamples seeds the emitted-sample counter on resume so totals
	// and progress metrics account for the pre-checkpoint prefix.
	StartSamples uint64

	// QueueDepth bounds the per-shard batch queue (backpressure): a shard
	// may run at most QueueDepth rounds ahead of the merger.
	QueueDepth int
	// BatchHint is the expected sample count of one (shard, round) cell;
	// workers preallocate batch buffers to this capacity so the hot loop
	// avoids append-growth reallocation. Zero means no preallocation.
	BatchHint int

	// Gen produces each (shard, round) batch.
	Gen GenFunc
	// Sink receives every sample in canonical order; its first error
	// stops the run.
	Sink func(results.Sample) error

	// Commit, CheckpointPath and CheckpointEvery enable checkpointing:
	// every CheckpointEvery merged rounds the engine commits the sink and
	// atomically rewrites CheckpointPath. Checkpointing is skipped unless
	// both Commit and CheckpointPath are set.
	Commit          CommitFunc
	CheckpointPath  string
	CheckpointEvery int
	// Fingerprint identifies the workload configuration; it is stored in
	// checkpoints and validated on resume by the caller.
	Fingerprint string

	// OnRound, when set, observes each merged round (its index and sample
	// count) from the merger goroutine.
	OnRound func(round int, samples uint64)

	// OnCheckpoint, when set, runs from the merger goroutine after each
	// checkpoint is durably written, with the checkpointed round and the
	// committed sink offset. The sink is quiesced for the duration — no
	// writes happen until the hook returns — so the hook may read the
	// samples file up to offset (e.g. to refresh an analysis snapshot).
	OnCheckpoint func(round int, offset int64)

	// Metrics, when set, receives shard progress, queue depth, merge
	// stalls and checkpoint instruments.
	Metrics *Metrics

	// Log, when set, receives structured events (checkpoint writes, run
	// completion or failure) for the run's flight recorder.
	Log *obs.Logger
}

// batch is one (shard, round) cell traveling from a worker to the merger.
type batch struct {
	round   int
	samples []results.Sample
	err     error
}

// Run executes the configured campaign. It returns the total number of
// samples emitted to the sink (including StartSamples) and the first
// error encountered; on error the sink may hold a partial round, which is
// exactly what checkpoints exist to recover from.
func Run(ctx context.Context, cfg Config) (uint64, error) {
	if cfg.Gen == nil || cfg.Sink == nil {
		return cfg.StartSamples, errors.New("engine: nil Gen or Sink")
	}
	if cfg.Rounds < 0 || cfg.StartRound < 0 || cfg.StartRound > cfg.Rounds {
		return cfg.StartSamples, fmt.Errorf("engine: invalid round window start=%d rounds=%d", cfg.StartRound, cfg.Rounds)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	queue := cfg.QueueDepth
	if queue <= 0 {
		queue = DefaultQueueDepth
	}
	ckEvery := cfg.CheckpointEvery
	if ckEvery <= 0 {
		ckEvery = DefaultCheckpointEvery
	}
	checkpointing := cfg.CheckpointPath != "" && cfg.Commit != nil
	m := cfg.Metrics

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	chans := make([]chan batch, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		ch := make(chan batch, queue)
		chans[s] = ch
		wg.Add(1)
		go func(shard int, ch chan<- batch) {
			defer wg.Done()
			defer close(ch)
			prog := m.shardGauge(shard)
			for round := cfg.StartRound; round < cfg.Rounds; round++ {
				if runCtx.Err() != nil {
					return
				}
				buf := make([]results.Sample, 0, cfg.BatchHint)
				err := cfg.Gen(runCtx, shard, round, func(s results.Sample) error {
					buf = append(buf, s)
					return nil
				})
				select {
				case ch <- batch{round: round, samples: buf, err: err}:
				case <-runCtx.Done():
					return
				}
				if err != nil {
					return
				}
				prog.Set(float64(round + 1))
			}
		}(s, ch)
	}

	emitted := cfg.StartSamples
	peakDepth := 0
	var runErr error
merge:
	for round := cfg.StartRound; round < cfg.Rounds; round++ {
		roundStart := emitted
		for s := 0; s < workers; s++ {
			b, ok := recvBatch(runCtx, chans[s], m)
			if !ok {
				// The shard quit without delivering this round: either the
				// context was cancelled or the worker died after an error
				// batch we have already consumed.
				if runErr = context.Cause(runCtx); runErr == nil {
					runErr = fmt.Errorf("engine: shard %d stopped before round %d", s, round)
				}
				break merge
			}
			if b.err != nil {
				runErr = fmt.Errorf("engine: shard %d round %d: %w", s, b.round, b.err)
				break merge
			}
			if b.round != round {
				runErr = fmt.Errorf("engine: shard %d delivered round %d out of order, want %d", s, b.round, round)
				break merge
			}
			for _, smp := range b.samples {
				if err := cfg.Sink(smp); err != nil {
					runErr = err
					break merge
				}
				emitted++
			}
		}
		{
			depth := 0
			for _, ch := range chans {
				depth += len(ch)
			}
			if depth > peakDepth {
				peakDepth = depth
			}
			if m != nil {
				m.QueueDepth.Set(float64(depth))
				m.QueueDepthPeak.Set(float64(peakDepth))
				m.RoundsMerged.Set(float64(round + 1))
			}
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round, emitted-roundStart)
		}
		if checkpointing && (round+1-cfg.StartRound)%ckEvery == 0 && round+1 < cfg.Rounds {
			if err := writeCheckpoint(cfg, workers, round, emitted); err != nil {
				runErr = err
				break merge
			}
		}
	}

	// Unblock workers stuck on a full queue, then drain and join them.
	cancel()
	for _, ch := range chans {
		for range ch {
		}
	}
	wg.Wait()
	if runErr != nil {
		cfg.Log.Error("engine run failed", "error", runErr, "samples", emitted)
	} else {
		cfg.Log.Info("engine run complete",
			"rounds", cfg.Rounds, "workers", workers, "samples", emitted, "peak_queue_depth", peakDepth)
	}
	return emitted, runErr
}

// recvBatch receives the next batch from a shard channel, counting a
// merge stall when the merger would block waiting for the shard.
func recvBatch(ctx context.Context, ch <-chan batch, m *Metrics) (batch, bool) {
	select {
	case b, ok := <-ch:
		return b, ok
	default:
	}
	m.mergeStall()
	select {
	case b, ok := <-ch:
		return b, ok
	case <-ctx.Done():
		// Give a delivered batch priority over cancellation so shutdown
		// does not drop work that already made it through the queue.
		select {
		case b, ok := <-ch:
			return b, ok
		default:
			return batch{}, false
		}
	}
}

// writeCheckpoint commits the sink and atomically persists the watermark.
func writeCheckpoint(cfg Config, workers, round int, emitted uint64) error {
	offset, err := cfg.Commit()
	if err != nil {
		return fmt.Errorf("engine: checkpoint commit: %w", err)
	}
	cp := Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: cfg.Fingerprint,
		Workers:     workers,
		Round:       round,
		Samples:     emitted,
		SinkOffset:  offset,
		Shards:      make([]ShardMark, workers),
	}
	// The merge is round-synchronous, so every shard's durable watermark
	// coincides with the merged round; the per-shard form is kept so the
	// format survives a future asynchronous merger.
	for s := range cp.Shards {
		cp.Shards[s] = ShardMark{Shard: s, Round: round}
	}
	if err := cp.Save(cfg.CheckpointPath); err != nil {
		return err
	}
	cfg.Metrics.checkpointWrite()
	cfg.Log.Info("checkpoint written",
		"path", cfg.CheckpointPath, "round", round, "samples", emitted, "sink_offset", offset)
	if cfg.OnCheckpoint != nil {
		cfg.OnCheckpoint(round, offset)
	}
	return nil
}
