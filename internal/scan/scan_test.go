package scan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colf"
	"repro/internal/obs"
	"repro/internal/results"
)

// tallyPass counts samples and accumulates an order-sensitive checksum
// (a rotate-xor fold over each sample's probe and RTT bits), so any
// merge-order mistake shows up as a checksum mismatch against the
// sequential fold of the same rows (see refTally).
type tallyPass struct {
	n    uint64
	fold uint64
}

// tallyMix folds one sample into the checksum. The rotation makes the
// fold order-sensitive; the integer ops keep the loop free of the
// long-latency float divides an accumulating benchmark pass must not
// pay per row.
func tallyMix(fold uint64, probe int, rtt float64) uint64 {
	return bits.RotateLeft64(fold, 13) ^ (math.Float64bits(rtt) + uint64(probe)*0x9E3779B97F4A7C15)
}

// Columns: the kernel reads only the always-decoded probe and RTT
// columns, so the scanner can skip timestamp and region-string decode.
func (p *tallyPass) Columns() colf.ColumnSet { return 0 }

func (p *tallyPass) ObserveBlock(blk *colf.Block) error {
	fold := p.fold
	for i, probe := range blk.Probe {
		fold = tallyMix(fold, probe, blk.RTT[i])
	}
	p.fold = fold
	p.n += uint64(len(blk.Probe))
	return nil
}

func (p *tallyPass) Merge(other Pass) error {
	o := other.(*tallyPass)
	p.n += o.n
	// Replaying the fold is impossible without the samples; instead keep
	// a sequence-sensitive combination that only matches the sequential
	// result if merge order equals file order AND each group saw a
	// contiguous run. (Good enough to catch ordering bugs in tests.)
	p.fold = bits.RotateLeft64(p.fold, 13) ^ o.fold
	return nil
}

// orderPass records every probe ID in observation order and concatenates
// on merge — merged output must equal the file order exactly.
type orderPass struct{ ids []int }

func (p *orderPass) Columns() colf.ColumnSet { return 0 }

func (p *orderPass) ObserveBlock(blk *colf.Block) error {
	p.ids = append(p.ids, blk.Probe...)
	return nil
}

func (p *orderPass) Merge(other Pass) error {
	p.ids = append(p.ids, other.(*orderPass).ids...)
	return nil
}

// TestBlocksPreservesOrderPastPrefix scans the blocks past a covered
// prefix, as an incremental fold does: for any worker count the merged
// pass observes exactly the rows past the boundary in file order, and
// the stats account for the prefix without reading it.
func TestBlocksPreservesOrderPastPrefix(t *testing.T) {
	samples := genSamples(1201)
	path := writeBinary(t, samples, 64)
	rd, closer, err := colf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	blocks := rd.Blocks()
	const skip = 7
	want := samples[skip*64:]
	for _, workers := range []int{1, 2, 4, 7, 64} {
		var keep []*orderPass
		cfg := Config{Workers: workers, NewPasses: func(int) ([]Pass, error) {
			p := &orderPass{}
			keep = append(keep, p)
			return []Pass{p}, nil
		}}
		st, err := Blocks(context.Background(), cfg, rd, 0, blocks[skip:], skip, blocks[skip].Off)
		if err != nil {
			t.Fatal(err)
		}
		last := blocks[len(blocks)-1]
		if st.PrefixBlocks != skip || st.PrefixBytes != blocks[skip].Off || st.BlocksTotal != len(blocks) || st.BlocksRead != len(blocks)-skip || st.DataEnd != last.Off+last.Len {
			t.Errorf("workers=%d: prefix accounting %+v", workers, st)
		}
		ids := keep[0].ids
		if len(ids) != len(want) {
			t.Fatalf("workers=%d: merged %d ids, want %d", workers, len(ids), len(want))
		}
		for i := range want {
			if ids[i] != want[i].ProbeID {
				t.Fatalf("workers=%d: id[%d] = %d, want %d (order broken)", workers, i, ids[i], want[i].ProbeID)
			}
		}
	}
}

// badRowStore writes three 4-row blocks whose second block carries bad
// at row 2, bypassing the validating sink.
func badRowStore(t *testing.T, bad colf.Row) (path string, samples []results.Sample) {
	t.Helper()
	samples = genSamples(12)
	path = filepath.Join(t.TempDir(), "samples.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := colf.NewWriter(f)
	w.SetBlockRows(4)
	for i, s := range samples {
		r := colf.Row{Probe: s.ProbeID, TimeNano: s.Time.UnixNano(), Region: s.Region, RTT: s.RTTms, Lost: s.Lost}
		if i == 6 {
			bad.TimeNano = r.TimeNano
			r = bad
		}
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
	return path, samples
}

// TestFileRejectsInvalidSample pins the validity sweep: a block holding
// a row Sample.Validate rejects fails the scan with the row's position
// and Validate's text before any pass sees the block, while a predicate
// that excludes the row lets the scan through.
func TestFileRejectsInvalidSample(t *testing.T) {
	cases := map[string]struct {
		bad  colf.Row
		want string
	}{
		"zero probe":   {colf.Row{Probe: 0, Region: "aws/us-east-1", RTT: 5}, "row 2: results: bad probe id 0"},
		"empty region": {colf.Row{Probe: 9, Region: "", RTT: 5}, "row 2: results: empty region"},
		"zero rtt":     {colf.Row{Probe: 9, Region: "aws/us-east-1", RTT: 0}, "row 2: results: non-positive RTT 0 on delivered sample"},
		"negative rtt": {colf.Row{Probe: 9, Region: "aws/us-east-1", RTT: -3}, "row 2: results: non-positive RTT -3 on delivered sample"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path, samples := badRowStore(t, tc.bad)
			var seen *orderPass
			_, err := File(context.Background(), Config{
				Path:    path,
				Workers: 1,
				NewPasses: func(int) ([]Pass, error) {
					seen = &orderPass{}
					return []Pass{seen}, nil
				},
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "block at offset ") {
				t.Fatalf("err = %v, want block position and %q", err, tc.want)
			}
			// Block 0 was folded; nothing of the bad block was.
			if len(seen.ids) != 4 {
				t.Errorf("passes observed %d rows, want the first block's 4", len(seen.ids))
			}
			// A window that ends before the bad row never validates it.
			pred := &colf.Predicate{Until: samples[6].Time}
			ids, st := scanOrder(t, Config{Path: path, Workers: 2, Predicate: pred})
			if len(ids) != 6 || st.Samples != 6 {
				t.Errorf("window before the bad row kept %d rows, want 6", len(ids))
			}
		})
	}
}

// TestFileEmptyDataset scans a zero-length samples file — a store
// created but never written.
func TestFileEmptyDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.bin")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
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
	if calls != 1 {
		t.Errorf("NewPasses called %d times on empty file, want 1 (worker 0)", calls)
	}
	if st.Samples != 0 || st.Workers != 0 || st.DataEnd != 0 {
		t.Errorf("Stats = %+v, want zero samples/workers/data end", st)
	}
	// Anything else that is not a colf file is an error, not a dataset.
	if err := os.WriteFile(path, []byte(`{"probe":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := File(context.Background(), Config{Path: path, NewPasses: func(int) ([]Pass, error) { return nil, nil }}); err == nil {
		t.Error("non-colf samples file scanned")
	}
}

// cancelPass cancels the scan's context from inside its first block.
type cancelPass struct {
	tallyPass
	cancel context.CancelFunc
}

func (p *cancelPass) ObserveBlock(blk *colf.Block) error {
	p.cancel()
	return p.tallyPass.ObserveBlock(blk)
}

func (p *cancelPass) Merge(other Pass) error {
	return p.tallyPass.Merge(&other.(*cancelPass).tallyPass)
}

// TestFileCancellation cancels mid-scan: the worker notices between
// blocks and the scan returns the context's error.
func TestFileCancellation(t *testing.T) {
	path := writeBinary(t, genSamples(5000), 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first *cancelPass
	_, err := File(ctx, Config{
		Path:    path,
		Workers: 1,
		NewPasses: func(int) ([]Pass, error) {
			first = &cancelPass{cancel: cancel}
			return []Pass{first}, nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled scan err = %v, want context.Canceled", err)
	}
	if first.n != 64 {
		t.Errorf("scan folded %d rows after cancelling in block 0, want 64", first.n)
	}
}

func TestFileMetrics(t *testing.T) {
	samples := genSamples(300)
	path := writeBinary(t, samples, 64)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	st, err := File(context.Background(), Config{
		Path:      path,
		Workers:   3,
		Metrics:   m,
		NewPasses: func(w int) ([]Pass, error) { return []Pass{&tallyPass{}}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Scans.Value() != 1 {
		t.Errorf("scan_total = %d, want 1", m.Scans.Value())
	}
	if m.Samples.Value() != uint64(len(samples)) {
		t.Errorf("scan_samples_total = %d, want %d", m.Samples.Value(), len(samples))
	}
	if m.Bytes.Value() != uint64(st.Bytes) {
		t.Errorf("scan_bytes_total = %d, want %d", m.Bytes.Value(), st.Bytes)
	}
	if u := m.Utilization.Value(); u < 0 || u > 1 {
		t.Errorf("scan_worker_utilization = %v, want within [0,1]", u)
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < st.Workers; w++ {
		if want := fmt.Sprintf(`scan_worker_busy_seconds{worker="%d"}`, w); !strings.Contains(text.String(), want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}
