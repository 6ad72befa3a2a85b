package engine

import (
	"strconv"

	"repro/internal/obs"
)

// Metrics are the engine's execution instruments. A nil *Metrics (or any
// nil field) disables that instrument; the engine never guards.
type Metrics struct {
	// ShardRounds tracks each shard's generated-round watermark (which may
	// run ahead of the merged watermark by up to the queue depth).
	ShardRounds *obs.GaugeVec // shard
	// RoundsMerged is the merger's completed-round watermark.
	RoundsMerged *obs.Gauge
	// QueueDepth is the total number of batches queued across shards,
	// sampled after each merged round.
	QueueDepth *obs.Gauge
	// QueueDepthPeak is the high-water mark of QueueDepth over the run.
	QueueDepthPeak *obs.Gauge
	// MergeStalls counts merges that had to wait for a shard to deliver.
	MergeStalls *obs.Counter
	// CheckpointWrites counts checkpoints persisted.
	CheckpointWrites *obs.Counter
}

// NewMetrics registers the engine instrument set on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		ShardRounds: reg.GaugeVec("engine_shard_rounds_generated",
			"Rounds generated per shard (may run ahead of the merge).", "shard"),
		RoundsMerged: reg.Gauge("engine_rounds_merged",
			"Rounds fully merged into the sink."),
		QueueDepth: reg.Gauge("engine_queue_depth",
			"Batches buffered between shards and the merger."),
		QueueDepthPeak: reg.Gauge("engine_queue_depth_peak",
			"High-water mark of the shard-to-merger queue depth."),
		MergeStalls: reg.Counter("engine_merge_stalls_total",
			"Merge steps that blocked waiting for a shard's batch."),
		CheckpointWrites: reg.Counter("engine_checkpoint_writes_total",
			"Checkpoints persisted."),
	}
}

// shardGauge resolves the progress gauge for one shard (nil-safe).
func (m *Metrics) shardGauge(shard int) *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.ShardRounds.With(strconv.Itoa(shard))
}

func (m *Metrics) mergeStall() {
	if m != nil {
		m.MergeStalls.Inc()
	}
}

func (m *Metrics) checkpointWrite() {
	if m != nil {
		m.CheckpointWrites.Inc()
	}
}
