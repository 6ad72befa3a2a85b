package scan

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/colf"
	"repro/internal/obs"
	"repro/internal/results"
)

// genSamples builds a deterministic sample stream with strictly
// increasing timestamps (one per second), so time zone maps are tight
// and windowed predicates map cleanly onto block ranges.
func genSamples(n int) []results.Sample {
	rng := rand.New(rand.NewSource(42))
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	regions := []string{"aws/us-east-1", "gcp/europe-west4", "azure/eastus"}
	samples := make([]results.Sample, 0, n)
	for i := 0; i < n; i++ {
		s := results.Sample{
			ProbeID: 1 + rng.Intn(500),
			Region:  regions[rng.Intn(len(regions))],
			Time:    base.Add(time.Duration(i) * time.Second),
			RTTms:   0.1 + 300*rng.Float64(),
			Lost:    rng.Intn(20) == 0,
		}
		if s.Lost {
			s.RTTms = 1
		}
		samples = append(samples, s)
	}
	return samples
}

// writeBinary encodes samples into a colf file with the given block
// size (small blocks give multi-block files from small inputs).
func writeBinary(t testing.TB, samples []results.Sample, blockRows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "samples.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := colf.NewWriter(f)
	w.SetBlockRows(blockRows)
	for _, s := range samples {
		r := colf.Row{Probe: s.ProbeID, TimeNano: s.Time.UnixNano(), Region: s.Region, RTT: s.RTTms, Lost: s.Lost}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// scanOrder runs an order-recording scan and returns the merged ids.
func scanOrder(t *testing.T, cfg Config) ([]int, Stats) {
	t.Helper()
	var keep []*orderPass
	cfg.NewPasses = func(w int) ([]Pass, error) {
		p := &orderPass{}
		keep = append(keep, p)
		return []Pass{p}, nil
	}
	st, err := File(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return keep[0].ids, st
}

// TestBinaryFilePreservesOrder is the core determinism check: for any
// worker count, the merged pass observes file order exactly, and the
// stats carry full block accounting.
func TestBinaryFilePreservesOrder(t *testing.T) {
	samples := genSamples(1201)
	path := writeBinary(t, samples, 64)
	for _, workers := range []int{1, 2, 4, 7, 64} {
		ids, st := scanOrder(t, Config{Path: path, Workers: workers})
		if st.Samples != uint64(len(samples)) {
			t.Errorf("workers=%d: %d samples, want %d", workers, st.Samples, len(samples))
		}
		if st.BlocksTotal != 19 { // ceil(1201/64)
			t.Errorf("workers=%d: BlocksTotal = %d, want 19", workers, st.BlocksTotal)
		}
		if st.BlocksRead != st.BlocksTotal || st.BlocksSkipped != 0 {
			t.Errorf("workers=%d: read %d/%d blocks, skipped %d on unfiltered scan",
				workers, st.BlocksRead, st.BlocksTotal, st.BlocksSkipped)
		}
		if st.BytesDecoded <= 0 || st.BytesDecoded >= st.Bytes {
			t.Errorf("workers=%d: BytesDecoded = %d, want in (0, %d)", workers, st.BytesDecoded, st.Bytes)
		}
		if len(ids) != len(samples) {
			t.Fatalf("workers=%d: merged %d ids, want %d", workers, len(ids), len(samples))
		}
		for i := range samples {
			if ids[i] != samples[i].ProbeID {
				t.Fatalf("workers=%d: id[%d] = %d, want %d (order broken)", workers, i, ids[i], samples[i].ProbeID)
			}
		}
	}
}

// TestBinaryPredicatePushdown is the zone-map acceptance check: a
// narrow time window decodes only the covering blocks, and the rows it
// yields are exactly the rows inside the window.
func TestBinaryPredicatePushdown(t *testing.T) {
	samples := genSamples(4000)
	bpath := writeBinary(t, samples, 64) // ~63 blocks, one per ~64 seconds

	// A ~10-minute window in the middle of the ~67-minute stream.
	pred := &colf.Predicate{
		Since: samples[0].Time.Add(30 * time.Minute),
		Until: samples[0].Time.Add(40 * time.Minute),
	}
	var want []int
	for _, s := range samples {
		if !s.Time.Before(pred.Since) && s.Time.Before(pred.Until) {
			want = append(want, s.ProbeID)
		}
	}
	if len(want) == 0 || len(want) == len(samples) {
		t.Fatalf("degenerate window keeps %d of %d samples", len(want), len(samples))
	}

	for _, workers := range []int{1, 3, 8} {
		ids, st := scanOrder(t, Config{Path: bpath, Workers: workers, Predicate: pred})
		if st.Samples != uint64(len(want)) {
			t.Errorf("workers=%d: %d samples, want %d", workers, st.Samples, len(want))
		}
		if st.BlocksSkipped == 0 || st.BlocksRead+st.BlocksSkipped != st.BlocksTotal {
			t.Errorf("workers=%d: block accounting %d read + %d skipped != %d total",
				workers, st.BlocksRead, st.BlocksSkipped, st.BlocksTotal)
		}
		// The window covers ~10/67 of the stream; with per-block slack the
		// scan must still decode well under a quarter of the blocks.
		if 4*st.BlocksRead >= st.BlocksTotal {
			t.Errorf("workers=%d: windowed scan decoded %d/%d blocks, want < 25%%",
				workers, st.BlocksRead, st.BlocksTotal)
		}
		if len(ids) != len(want) {
			t.Fatalf("workers=%d: kept %d rows, want %d", workers, len(ids), len(want))
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("workers=%d: filtered id[%d] = %d, want %d", workers, i, ids[i], want[i])
			}
		}
	}
}

// TestBinaryAllBlocksSkipped covers the degenerate pushdown: a window
// before the stream skips everything and still reports consistently.
func TestBinaryAllBlocksSkipped(t *testing.T) {
	samples := genSamples(500)
	path := writeBinary(t, samples, 64)
	pred := &colf.Predicate{Until: samples[0].Time.Add(-time.Hour)}
	calls := 0
	st, err := File(context.Background(), Config{
		Path:      path,
		Workers:   4,
		Predicate: pred,
		NewPasses: func(w int) ([]Pass, error) {
			calls++
			return []Pass{&tallyPass{}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("NewPasses called %d times with every block skipped, want 1", calls)
	}
	if st.Samples != 0 || st.BlocksRead != 0 || st.BlocksSkipped != st.BlocksTotal || st.BytesDecoded != 0 {
		t.Errorf("all-skipped stats = %+v", st)
	}
}

// TestBinaryEmptyDataset scans a header-plus-index file with no rows.
func TestBinaryEmptyDataset(t *testing.T) {
	path := writeBinary(t, nil, 64)
	calls := 0
	st, err := File(context.Background(), Config{
		Path:    path,
		Workers: 4,
		NewPasses: func(w int) ([]Pass, error) {
			calls++
			return []Pass{&tallyPass{}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || st.Samples != 0 || st.Workers != 0 || st.BlocksTotal != 0 {
		t.Errorf("empty binary dataset: calls=%d stats=%+v", calls, st)
	}
}

// TestBinaryCorruptBlock flips one payload byte and expects the scan to
// fail deterministically, naming the block group.
func TestBinaryCorruptBlock(t *testing.T) {
	samples := genSamples(1000)
	path := writeBinary(t, samples, 64)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[colf.HeaderSize+40] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = File(context.Background(), Config{
		Path:      path,
		Workers:   3,
		NewPasses: func(w int) ([]Pass, error) { return []Pass{&tallyPass{}}, nil },
	})
	if err == nil || !strings.Contains(err.Error(), "block group 0") {
		t.Errorf("corrupt block err = %v, want block group 0 failure", err)
	}
}

// TestBinaryCancellation starts a scan under an already-cancelled context.
func TestBinaryCancellation(t *testing.T) {
	path := writeBinary(t, genSamples(5000), 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := File(ctx, Config{
		Path:      path,
		Workers:   2,
		NewPasses: func(w int) ([]Pass, error) { return []Pass{&tallyPass{}}, nil },
	})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("cancelled scan err = %v, want context.Canceled", err)
	}
}

// TestBinaryMetrics checks the colf_* instruments record the block
// accounting of binary scans.
func TestBinaryMetrics(t *testing.T) {
	samples := genSamples(1000)
	path := writeBinary(t, samples, 64)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	pred := &colf.Predicate{Until: samples[500].Time}
	st, err := File(context.Background(), Config{
		Path:      path,
		Workers:   3,
		Metrics:   m,
		Predicate: pred,
		NewPasses: func(w int) ([]Pass, error) { return []Pass{&tallyPass{}}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Colf.BlocksRead.Value(); got != uint64(st.BlocksRead) {
		t.Errorf("colf_blocks_read_total = %d, want %d", got, st.BlocksRead)
	}
	if got := m.Colf.BlocksSkipped.Value(); got != uint64(st.BlocksSkipped) {
		t.Errorf("colf_blocks_skipped_total = %d, want %d", got, st.BlocksSkipped)
	}
	if got := m.Colf.BytesDecoded.Value(); got != uint64(st.BytesDecoded) {
		t.Errorf("colf_bytes_decoded_total = %d, want %d", got, st.BytesDecoded)
	}
	if m.Samples.Value() != st.Samples {
		t.Errorf("scan_samples_total = %d, want %d", m.Samples.Value(), st.Samples)
	}
}

// TestGroupBlocks pins the block grouper's invariants: contiguous
// cover, at most n groups, no empty groups, for awkward shapes.
func TestGroupBlocks(t *testing.T) {
	mk := func(lens ...int64) []colf.BlockInfo {
		blocks := make([]colf.BlockInfo, len(lens))
		off := int64(colf.HeaderSize)
		for i, l := range lens {
			blocks[i] = colf.BlockInfo{Off: off, Len: l}
			off += l
		}
		return blocks
	}
	cases := [][]colf.BlockInfo{
		mk(100),
		mk(100, 100, 100),
		mk(1, 1, 1, 1000),
		mk(1000, 1, 1, 1),
		mk(50, 60, 70, 80, 90, 100, 110, 120, 130, 140),
	}
	for ci, blocks := range cases {
		for _, n := range []int{1, 2, 3, 7, 100} {
			groups := groupBlocks(blocks, n)
			if len(groups) > n {
				t.Fatalf("case %d n=%d: %d groups", ci, n, len(groups))
			}
			i := 0
			for gi, g := range groups {
				if len(g) == 0 {
					t.Fatalf("case %d n=%d: group %d empty", ci, n, gi)
				}
				for _, b := range g {
					if b.Off != blocks[i].Off {
						t.Fatalf("case %d n=%d: group %d breaks contiguity at block %d", ci, n, gi, i)
					}
					i++
				}
			}
			if i != len(blocks) {
				t.Fatalf("case %d n=%d: groups cover %d blocks, want %d", ci, n, i, len(blocks))
			}
		}
	}
	if groupBlocks(nil, 4) != nil {
		t.Error("empty block list produced groups")
	}
}
