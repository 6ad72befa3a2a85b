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

// Checkpoint is the engine's persisted resume state: everything needed to
// continue an interrupted run without re-synthesizing the merged prefix.
// SinkOffset is the durable byte length of the sink when the checkpoint
// was taken; resuming truncates the sink back to it, dropping whatever
// partial round followed. The merge is round-synchronous, so Round is
// every shard's watermark and the worker count is not part of it: a run
// resumes at any -workers. Every is the cadence the checkpoint was
// taken at, which is part of what the run writes: each checkpoint seals
// a block, so a run resumed at another cadence seals other blocks than
// either uninterrupted run. Files that still carry the "workers" and
// "shards" keys older writers added load unchanged, and files from
// before Every was recorded load with it zero.
type Checkpoint struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Every       int    `json:"every"` // rounds between checkpoints
	Round       int    `json:"round"` // last fully merged round
	Samples     uint64 `json:"samples"`
	SinkOffset  int64  `json:"sink_offset"`
}

// Validate rejects structurally broken checkpoints.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("engine: unsupported checkpoint version %d", c.Version)
	}
	if c.Round < 0 || c.SinkOffset < 0 {
		return fmt.Errorf("engine: corrupt checkpoint (round=%d offset=%d)", c.Round, c.SinkOffset)
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

// LoadCheckpoint reads and validates a checkpoint file. A missing file
// is the os error (errors.Is fs.ErrNotExist: the run either never
// checkpointed or already completed); a file that is empty, torn,
// corrupt or of another format (the plain JSON checkpoints once were
// included) is an error naming the path, never a resume point.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := snap.ReadFile(path, checkpointBinding)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, err
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
