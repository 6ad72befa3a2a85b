package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/snap"
)

// CheckpointVersion is the current checkpoint format version; it names
// the file's binding (engine-checkpoint-v1), so a file of another version
// is refused on load.
const CheckpointVersion = 1

// ShardMark records one shard's completed-round watermark.
type ShardMark struct {
	Shard int `json:"shard"`
	Round int `json:"round"`
}

// Checkpoint is the engine's persisted resume state: everything needed to
// continue an interrupted run without re-synthesizing the merged prefix.
// SinkOffset is the durable byte length of the sink when the checkpoint
// was taken; resuming truncates the sink back to it, dropping whatever
// partial round followed.
type Checkpoint struct {
	Version     int         `json:"version"`
	Fingerprint string      `json:"fingerprint"`
	Workers     int         `json:"workers"`
	Round       int         `json:"round"` // last fully merged round
	Samples     uint64      `json:"samples"`
	SinkOffset  int64       `json:"sink_offset"`
	Shards      []ShardMark `json:"shards"`
}

// Validate rejects structurally broken checkpoints.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("engine: unsupported checkpoint version %d", c.Version)
	}
	if c.Round < 0 || c.SinkOffset < 0 || c.Workers < 1 {
		return fmt.Errorf("engine: corrupt checkpoint (round=%d offset=%d workers=%d)",
			c.Round, c.SinkOffset, c.Workers)
	}
	for _, s := range c.Shards {
		if s.Round < c.Round {
			return fmt.Errorf("engine: shard %d watermark %d behind merged round %d",
				s.Shard, s.Round, c.Round)
		}
	}
	return nil
}

// checkpointBinding marks a file as a checkpoint of this format
// version; the campaign identity is the payload's Fingerprint, so a
// mismatch there gets its own message from the caller.
var checkpointBinding = snap.Binding{PassSet: fmt.Sprintf("engine-checkpoint-v%d", CheckpointVersion)}

// Save durably replaces the checkpoint at path: one CRC-guarded record
// holding the checkpoint as JSON, behind the shared file header
// (internal/snap), written to a temp file, fsynced and renamed, so a
// crash leaves the previous checkpoint or this one, never a torn file.
func (c *Checkpoint) Save(path string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return snap.ReplaceFile(path, snap.Image(checkpointBinding, b))
}

// ErrNoCheckpoint reports that a resume was requested but no checkpoint
// file exists (the run either never checkpointed or already completed).
var ErrNoCheckpoint = errors.New("engine: no checkpoint")

// LoadCheckpoint reads and validates a checkpoint file. A missing file
// maps to ErrNoCheckpoint; a file that is empty, torn, corrupt or of
// another format (the plain JSON checkpoints once were included) is an
// error naming the path, never a resume point.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := snap.ReadFile(path, checkpointBinding)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("%w at %s", ErrNoCheckpoint, path)
	case err != nil:
		return nil, fmt.Errorf("engine: corrupt checkpoint %s: %w", path, err)
	}
	var c Checkpoint
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("engine: corrupt checkpoint %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
