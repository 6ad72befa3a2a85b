package scan

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/colf"
	"repro/internal/results"
)

// rowSeq is an observed row sequence: probe and RTT bits, in order.
type rowSeq struct {
	probe []int
	rtt   []float64
}

func (a rowSeq) equal(b rowSeq) bool {
	return slices.Equal(a.probe, b.probe) && slices.Equal(a.rtt, b.rtt)
}

// refRows is the sequential reference: the rows of samples that pred
// admits, in file order — what a scan of the store must hand its passes
// for every worker count.
func refRows(samples []results.Sample, pred *colf.Predicate) rowSeq {
	var ref rowSeq
	for _, s := range samples {
		if pred.MatchRow(s.ProbeID, s.Time.UnixNano(), s.Region) {
			ref.probe = append(ref.probe, s.ProbeID)
			ref.rtt = append(ref.rtt, s.RTTms)
		}
	}
	return ref
}

// countingPass records every row it is handed, concatenating on merge,
// and how the blocks reached it, so tests can assert both what the
// scanner folded and which dispatch it took.
type countingPass struct {
	rowSeq
	whole     int // blocks observed with every stored row
	compacted int // blocks observed as a row selection
}

func (p *countingPass) Columns() colf.ColumnSet { return 0 }

func (p *countingPass) ObserveBlock(blk *colf.Block) error {
	if blk.Rows() == blk.Zone.Rows {
		p.whole++
	} else {
		p.compacted++
	}
	p.probe = append(p.probe, blk.Probe...)
	p.rtt = append(p.rtt, blk.RTT...)
	return nil
}

func (p *countingPass) Merge(other Pass) error {
	o := other.(*countingPass)
	p.whole += o.whole
	p.compacted += o.compacted
	p.probe = append(p.probe, o.probe...)
	p.rtt = append(p.rtt, o.rtt...)
	return nil
}

// scanCounting runs one scan of path through a countingPass.
func scanCounting(t *testing.T, path string, cfg Config) (*countingPass, Stats) {
	t.Helper()
	var merged *countingPass
	cfg.Path = path
	cfg.NewPasses = func(w int) ([]Pass, error) {
		p := &countingPass{}
		if w == 0 {
			merged = p
		}
		return []Pass{p}, nil
	}
	st, err := File(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return merged, st
}

// TestBinaryBatchEquivalence pins the block fold to the sequential
// reference on an unfiltered store: for every worker count the passes
// see exactly the stored rows in file order, whole block by whole
// block.
func TestBinaryBatchEquivalence(t *testing.T) {
	samples := genSamples(20_000)
	path := writeBinary(t, samples, 256)
	ref := refRows(samples, nil)

	for _, workers := range []int{1, 2, 4, 7} {
		got, st := scanCounting(t, path, Config{Workers: workers})
		if got.whole != st.BlocksTotal || got.compacted != 0 {
			t.Fatalf("workers=%d: %d whole + %d compacted blocks of %d; want all whole",
				workers, got.whole, got.compacted, st.BlocksTotal)
		}
		if !got.equal(ref) {
			t.Errorf("workers=%d: scan folded %d rows that differ from the %d stored",
				workers, len(got.probe), len(ref.probe))
		}
	}
}

// TestBinaryBatchFilteredEquivalence repeats the reference check under
// predicates that cover some blocks fully and clip others, so both the
// whole-block dispatch and the compacted row selection are exercised —
// on a time-ordered store and on one whose time column is shuffled
// inside every block, where no row range describes the window. The
// Stats columns are the values the scanner reported before compaction
// replaced its per-row filter loop.
func TestBinaryBatchFilteredEquivalence(t *testing.T) {
	ordered := genSamples(20_000)
	shuffled := append([]results.Sample(nil), ordered...)
	rng := rand.New(rand.NewSource(7))
	for lo := 0; lo < len(shuffled); lo += 256 {
		blk := shuffled[lo:min(lo+256, len(shuffled))]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	window := &colf.Predicate{
		Since: ordered[0].Time.Add(1 * time.Hour),
		Until: ordered[0].Time.Add(4 * time.Hour),
	}
	cases := []struct {
		name                       string
		samples                    []results.Sample
		pred                       *colf.Predicate
		rows                       uint64 // Stats.RowsScanned
		read, skipped, whole, part int
	}{
		{"window", ordered, window, 11008, 43, 36, 41, 2},
		{"window, shuffled time", shuffled, window, 11008, 43, 36, 41, 2},
		{"probes", ordered, &colf.Predicate{MinProbe: 100, MaxProbe: 200}, 20000, 79, 0, 0, 79},
		{"region", ordered, &colf.Predicate{RegionPrefix: "aws/"}, 20000, 79, 0, 0, 79},
	}
	for _, tc := range cases {
		path := writeBinary(t, tc.samples, 256)
		ref := refRows(tc.samples, tc.pred)
		if len(ref.probe) == 0 || len(ref.probe) == len(tc.samples) {
			t.Fatalf("%s: degenerate predicate keeps %d of %d", tc.name, len(ref.probe), len(tc.samples))
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got, st := scanCounting(t, path, Config{Workers: workers, Predicate: tc.pred})
			if !got.equal(ref) {
				t.Errorf("%s workers=%d: scan folded %d rows that differ from the %d the predicate admits",
					tc.name, workers, len(got.probe), len(ref.probe))
			}
			if st.Samples != uint64(len(ref.probe)) || st.RowsScanned != tc.rows || st.BlocksRead != tc.read ||
				st.BlocksSkipped != tc.skipped || st.BlocksZone != 0 {
				t.Errorf("%s workers=%d: stats %+v", tc.name, workers, st)
			}
			if got.whole != tc.whole || got.compacted != tc.part {
				t.Errorf("%s workers=%d: %d whole + %d compacted blocks, want %d + %d",
					tc.name, workers, got.whole, got.compacted, tc.whole, tc.part)
			}
		}
	}
}

// zoneTally is an aggregate-only pass: with zone pre-aggregates it
// absorbs whole blocks with zero row decode.
type zoneTally struct {
	rows, delivered uint64
}

func (p *zoneTally) Columns() colf.ColumnSet { return 0 }

func (p *zoneTally) ObserveBlock(blk *colf.Block) error {
	p.rows += uint64(blk.Rows())
	for _, lost := range blk.Lost {
		if !lost {
			p.delivered++
		}
	}
	return nil
}

func (p *zoneTally) CanObserveZone(colf.Zone) bool { return true }

func (p *zoneTally) ObserveZone(z colf.Zone) error {
	p.rows += uint64(z.Rows)
	p.delivered += uint64(z.Delivered)
	return nil
}

func (p *zoneTally) Merge(other Pass) error {
	o := other.(*zoneTally)
	p.rows += o.rows
	p.delivered += o.delivered
	return nil
}

// TestBinaryZoneResolution pins the zone fast path: a scan whose only
// pass is zone-capable resolves every covered block from its footer
// pre-aggregates — zero rows decoded — decodes only the blocks a window
// clips, and matches the tallies of the rows themselves.
func TestBinaryZoneResolution(t *testing.T) {
	samples := genSamples(20_000)
	path := writeBinary(t, samples, 256)

	run := func(cfg Config) (*zoneTally, Stats) {
		var merged *zoneTally
		cfg.Path = path
		cfg.NewPasses = func(w int) ([]Pass, error) {
			p := &zoneTally{}
			if w == 0 {
				merged = p
			}
			return []Pass{p}, nil
		}
		st, err := File(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return merged, st
	}
	tally := func(pred *colf.Predicate) (want zoneTally) {
		for _, s := range samples {
			if pred.MatchRow(s.ProbeID, s.Time.UnixNano(), s.Region) {
				want.rows++
				if !s.Lost {
					want.delivered++
				}
			}
		}
		return want
	}

	zoned, zst := run(Config{Workers: 4})
	if zst.BlocksZone != zst.BlocksTotal || zst.RowsScanned != 0 || zst.BlocksRead != 0 {
		t.Fatalf("zone scan resolved %d/%d blocks from zones, decoded %d rows; want all, 0",
			zst.BlocksZone, zst.BlocksTotal, zst.RowsScanned)
	}
	if zst.Samples != uint64(len(samples)) {
		t.Errorf("zone scan counted %d samples, want %d", zst.Samples, len(samples))
	}
	if want := tally(nil); *zoned != want {
		t.Errorf("zone tallies %+v != row tallies %+v", *zoned, want)
	}

	window := &colf.Predicate{
		Since: samples[0].Time.Add(1 * time.Hour),
		Until: samples[0].Time.Add(4 * time.Hour),
	}
	clipped, cst := run(Config{Workers: 4, Predicate: window})
	if cst.BlocksZone != 41 || cst.BlocksRead != 2 || cst.BlocksSkipped != 36 || cst.RowsScanned != 512 {
		t.Errorf("windowed zone scan: %d zone, %d read, %d skipped, %d rows decoded; want 41, 2, 36, 512",
			cst.BlocksZone, cst.BlocksRead, cst.BlocksSkipped, cst.RowsScanned)
	}
	if want := tally(window); *clipped != want || cst.Samples != want.rows {
		t.Errorf("windowed zone tallies %+v (stats %d) != row tallies %+v", *clipped, cst.Samples, want)
	}
}
