package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunManifestRoundTrip(t *testing.T) {
	start := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
	m := NewRunManifest("shears", start)
	if m.RunID == "" || m.GoVersion == "" || m.GOMAXPROCS < 1 {
		t.Fatalf("identity fields not seeded: %+v", m)
	}
	if !strings.HasPrefix(m.RunID, "20200601T120000Z-") {
		t.Errorf("run ID %q not timestamp-prefixed", m.RunID)
	}
	m.WorldFingerprint = "abc123"
	m.Workers = 4
	m.Samples = 100000
	m.SamplesPerSec = 25000
	m.Snapshot = &SnapshotCoverage{PrefixBlocks: 22, BlocksRead: 1, BlocksTotal: 23}
	m.PeakQueueDepth = 9
	m.SetStagesFromDump(testTrace().Dump())
	m.Finish(start.Add(90 * time.Second))

	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != m.RunID || got.Binary != "shears" || got.DurationMs != 90000 {
		t.Errorf("round trip lost identity: %+v", got)
	}
	if len(got.Stages) != 2 || got.Stages[0].Name != "world.build" || got.Stages[1].Name != "campaign" {
		t.Errorf("stages = %+v, want top-level span children in order", got.Stages)
	}
	if got.Snapshot == nil || got.Snapshot.BlocksTotal != 23 {
		t.Errorf("snapshot coverage lost: %+v", got.Snapshot)
	}
	if got.Samples != 100000 || got.SamplesPerSec != 25000 || got.PeakQueueDepth != 9 {
		t.Errorf("outcome fields lost: %+v", got)
	}
}

func TestRunIDsUnique(t *testing.T) {
	now := time.Now()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRunID(now)
		if seen[id] {
			t.Fatalf("duplicate run ID %q", id)
		}
		seen[id] = true
	}
}

func TestFlagsFromSet(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.String("out", "dataset", "")
	fs.Int("workers", 4, "")
	fs.Bool("full", false, "")
	if err := fs.Parse([]string{"-out", "d2", "-full"}); err != nil {
		t.Fatal(err)
	}
	got := FlagsFromSet(fs)
	if len(got) != 2 || got["out"] != "d2" || got["full"] != "true" {
		t.Errorf("FlagsFromSet = %v, want only explicitly-set flags", got)
	}
	empty := flag.NewFlagSet("y", flag.ContinueOnError)
	if FlagsFromSet(empty) != nil {
		t.Error("empty flag set should produce nil map")
	}
}

func TestReadRunManifestErrors(t *testing.T) {
	if _, err := ReadRunManifest(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing manifest accepted")
	}
}
