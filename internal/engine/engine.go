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
	"log/slog"
	"sync"
	"time"

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

// DefaultCheckpointEvery is the checkpoint cadence, in merged rounds,
// when Config.CheckpointEvery is zero.
const DefaultCheckpointEvery = 16

// ctxCheckEvery is how many samples the merger sinks between context
// checks.
const ctxCheckEvery = 256

// queueDepth bounds the per-shard batch queue (backpressure): a shard
// may run at most queueDepth rounds ahead of the merger.
const queueDepth = 4

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

	// BatchHint is the expected sample count of one (shard, round) cell;
	// workers preallocate batch buffers to this capacity so the hot loop
	// avoids append-growth reallocation. Zero means no preallocation.
	// Buffers are recycled: a shard allocates at most queueDepth+2 a run.
	BatchHint int

	// Gen produces each (shard, round) batch.
	Gen GenFunc
	// Sink receives every sample in canonical order; its first error
	// stops the run. It gets each sample by value, which is what lets the
	// engine reuse a batch's buffer once Sink has seen its last sample.
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
	Log *slog.Logger
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
//
// A span carried in ctx (obs.ContextWith) gets the engine's stage spans:
// one engine.generate per shard, spanning its worker, with the time spent
// in Gen (busy_ms) and blocked on a full queue (blocked_ms) as attributes,
// and one results.write that lasts the merger's summed time in Sink.
func Run(ctx context.Context, cfg Config) (uint64, error) {
	if cfg.Gen == nil || cfg.Sink == nil {
		return cfg.StartSamples, errors.New("engine: nil Gen or Sink")
	}
	if cfg.Rounds < 0 || cfg.StartRound < 0 || cfg.StartRound > cfg.Rounds {
		return cfg.StartSamples, fmt.Errorf("engine: invalid round window start=%d rounds=%d", cfg.StartRound, cfg.Rounds)
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard
	}
	workers := max(cfg.Workers, 1)
	ckEvery := cfg.CheckpointEvery
	if ckEvery <= 0 {
		ckEvery = DefaultCheckpointEvery
	}
	checkpointing := cfg.CheckpointPath != "" && cfg.Commit != nil
	m := cfg.Metrics

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	span := obs.From(ctx)

	chans := make([]chan batch, workers)
	// frees[s] returns shard s's drained batch buffers to its worker. At
	// most queueDepth+2 of a shard's buffers exist at once — the queued
	// ones, the one the worker fills and the one the merger drains — so
	// a return never finds the list full once it holds them all.
	frees := make([]chan []results.Sample, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		ch := make(chan batch, queueDepth)
		chans[s] = ch
		frees[s] = make(chan []results.Sample, queueDepth+2)
		wg.Add(1)
		go func(shard int, ch chan<- batch, free <-chan []results.Sample) {
			defer wg.Done()
			defer close(ch)
			prog := m.shardGauge(shard)
			var buf []results.Sample
			emit := func(s results.Sample) error {
				buf = append(buf, s)
				return nil
			}
			var busy, blocked time.Duration
			gs := span.Child("engine.generate")
			defer func() {
				gs.SetAttr("shard", shard)
				gs.SetAttr("busy_ms", ms(busy))
				gs.SetAttr("blocked_ms", ms(blocked))
				gs.End()
			}()
			for round := cfg.StartRound; round < cfg.Rounds; round++ {
				if runCtx.Err() != nil {
					return
				}
				t0 := time.Now()
				select {
				case buf = <-free:
				default:
					buf = make([]results.Sample, 0, cfg.BatchHint)
				}
				err := cfg.Gen(runCtx, shard, round, emit)
				b := batch{round: round, samples: buf, err: err}
				t1 := time.Now()
				busy += t1.Sub(t0)
				select {
				case ch <- b:
				default:
					// The queue is full: the merger is behind.
					select {
					case ch <- b:
					case <-runCtx.Done():
						return
					}
					blocked += time.Since(t1)
				}
				if err != nil {
					return
				}
				prog.Set(float64(round + 1))
			}
		}(s, ch, frees[s])
	}

	emitted := cfg.StartSamples
	peakDepth := 0
	var sinkTime time.Duration
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
			t0 := time.Now()
			for i, smp := range b.samples {
				// A round at paper scale is thousands of samples: checking
				// the context only between batches would let a cancel (a
				// SIGINT, or the sink's own) lag by a whole batch.
				if i%ctxCheckEvery == 0 && runCtx.Err() != nil {
					runErr = context.Cause(runCtx)
					break merge
				}
				if err := cfg.Sink(smp); err != nil {
					runErr = err
					break merge
				}
				emitted++
			}
			sinkTime += time.Since(t0)
			// Sink took every sample by value, so the buffer is free.
			select {
			case frees[s] <- b.samples[:0]:
			default:
			}
		}
		{
			depth := 0
			for _, ch := range chans {
				depth += len(ch)
			}
			peakDepth = max(peakDepth, depth)
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
			if err := writeCheckpoint(cfg, round, emitted); err != nil {
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
	span.ChildSpent("results.write", sinkTime).SetAttr("samples", emitted-cfg.StartSamples)
	if runErr != nil {
		cfg.Log.Error("engine run failed", "error", runErr, "samples", emitted)
	} else {
		cfg.Log.Info("engine run complete",
			"rounds", cfg.Rounds, "workers", workers, "samples", emitted, "peak_queue_depth", peakDepth)
	}
	return emitted, runErr
}

// ms converts a duration to float milliseconds for a span attribute.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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
func writeCheckpoint(cfg Config, round int, emitted uint64) error {
	offset, err := cfg.Commit()
	if err != nil {
		return fmt.Errorf("engine: checkpoint commit: %w", err)
	}
	cp := Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: cfg.Fingerprint,
		Round:       round,
		Samples:     emitted,
		SinkOffset:  offset,
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
