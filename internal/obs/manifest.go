package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// RunManifest is the durable evidence bundle of one campaign or figure
// run, written as run.json next to the run's outputs: enough identity
// (run ID, build version, flags, world fingerprint) to reproduce the
// run and enough outcome (per-stage durations, throughput, snapshot
// coverage, peak queue depth and RSS) to compare it against other runs.
type RunManifest struct {
	RunID      string    `json:"run_id"`
	Binary     string    `json:"binary"`
	Version    string    `json:"version"` // VCS revision (+dirty) or module version
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	DurationMs float64   `json:"duration_ms"`

	// Flags records the explicitly-set command-line flags of the run.
	Flags map[string]string `json:"flags,omitempty"`
	// WorldFingerprint identifies the (config, seed, census) workload;
	// see atlas.CampaignConfig.Fingerprint.
	WorldFingerprint string `json:"world_fingerprint,omitempty"`
	Workers          int    `json:"workers,omitempty"`

	Samples       uint64  `json:"samples"`
	SamplesPerSec float64 `json:"samples_per_sec"`

	// Stages are the per-stage wall times, from the run's span tree.
	Stages []StageDuration `json:"stages,omitempty"`

	// Snapshot is the analysis-snapshot coverage of the run's scan, when
	// one ran against a binary store.
	Snapshot *SnapshotCoverage `json:"snapshot,omitempty"`

	// PeakQueueDepth is the engine's high-water batch queue depth.
	PeakQueueDepth float64 `json:"peak_queue_depth,omitempty"`
	// PeakRSSBytes is VmHWM, absent where /proc/self/status is.
	PeakRSSBytes uint64 `json:"peak_rss_bytes,omitempty"`
	// AllocBytes is the heap the process allocated over its life
	// (runtime/metrics' /gc/heap/allocs:bytes), freed or not.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// StageDuration is one named stage's wall time.
type StageDuration struct {
	Name       string  `json:"name"`
	DurationMs float64 `json:"duration_ms"`
}

// SnapshotCoverage summarises how much of a scan a snapshot absorbed.
type SnapshotCoverage struct {
	PrefixBlocks int `json:"prefix_blocks"` // blocks the snapshot covered
	BlocksRead   int `json:"blocks_read"`   // blocks the scan decoded
	BlocksTotal  int `json:"blocks_total"`  // blocks in the store
	// PrefixSamples counts the samples the snapshot stood in for, which
	// the manifest's samples (the scanned delta) leaves out.
	PrefixSamples uint64 `json:"prefix_samples,omitempty"`
	// Passes names the suite passes the resumed scan worked
	// (core.PassSet), "all" unless the run selected some.
	Passes string `json:"passes,omitempty"`
}

// NewRunID mints a unique run identifier: UTC timestamp plus random
// suffix, sortable and collision-safe across concurrent runs.
func NewRunID(now time.Time) string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degrade to a time-only ID; the timestamp still identifies the run.
		return now.UTC().Format("20060102T150405.000000000Z")
	}
	return fmt.Sprintf("%s-%s", now.UTC().Format("20060102T150405Z"), hex.EncodeToString(b[:]))
}

// BuildVersion reports the binary's VCS revision (with a +dirty marker
// for modified trees), falling back to the module version or "unknown".
func BuildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + dirty
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "unknown"
}

// NewRunManifest seeds a manifest with the run identity fields: ID,
// binary name, build and Go versions, GOMAXPROCS, and start time.
func NewRunManifest(binary string, start time.Time) *RunManifest {
	b := CurrentBuild()
	return &RunManifest{
		RunID:      NewRunID(start),
		Binary:     binary,
		Version:    b.Version,
		GoVersion:  b.GoVersion,
		GOMAXPROCS: b.GOMAXPROCS,
		Start:      start.UTC(),
	}
}

// Finish stamps the end time and duration.
func (m *RunManifest) Finish(end time.Time) {
	m.End = end.UTC()
	m.DurationMs = float64(end.Sub(m.Start)) / float64(time.Millisecond)
}

// SetStagesFromDump records the top-level children of the run's span
// tree as the manifest's stages, in execution order.
func (m *RunManifest) SetStagesFromDump(d SpanDump) {
	m.Stages = m.Stages[:0]
	for _, c := range d.Children {
		m.Stages = append(m.Stages, StageDuration{Name: c.Name, DurationMs: c.DurationMs})
	}
}

// JSON encodes the manifest as the indented JSON of run.json.
// internal/cmdrun writes it with snap.ReplaceFile, the durable replace
// every file beside a store goes through.
func (m *RunManifest) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: encoding run manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// ReadRunManifest loads a run.json written from JSON.
func ReadRunManifest(path string) (*RunManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: decoding run manifest %s: %w", path, err)
	}
	return &m, nil
}

// FlagsFromSet captures the explicitly-set flags of fs as a name→value
// map, for the manifest's Flags field.
func FlagsFromSet(fs *flag.FlagSet) map[string]string {
	out := make(map[string]string)
	fs.Visit(func(f *flag.Flag) {
		out[f.Name] = f.Value.String()
	})
	if len(out) == 0 {
		return nil
	}
	return out
}
