package colf

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// genRows builds a deterministic row stream shaped like real campaign
// data: round-major timestamps, repeating regions, occasional losses.
func genRows(n int) []Row {
	regions := []string{"Amazon/eu-north-1", "Google/us-west2", "Azure/eastus", "Amazon/ap-south-1"}
	rows := make([]Row, n)
	base := time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i := range rows {
		rows[i] = Row{
			Probe:    1 + (i*37)%523,
			TimeNano: base + int64(i/100)*int64(3*time.Hour),
			Region:   regions[i%len(regions)],
			RTT:      1 + math.Mod(float64(i)*17.3331, 290),
			Lost:     i%19 == 0,
		}
		if rows[i].Lost {
			rows[i].RTT = 0
		}
	}
	return rows
}

// encodeRows writes rows with the given block size and returns the
// full file bytes plus the data-only length (before the index).
func encodeRows(t testing.TB, rows []Row, blockRows int) (file []byte, dataLen int64) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetBlockRows(blockRows)
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dataLen = int64(w.BytesWritten())
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), dataLen
}

func sameRows(a, b []Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Probe != y.Probe || x.TimeNano != y.TimeNano || x.Region != y.Region ||
			math.Float64bits(x.RTT) != math.Float64bits(y.RTT) || x.Lost != y.Lost {
			return fmt.Errorf("row %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

func readAll(t testing.TB, file []byte) []Row {
	t.Helper()
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	var got []Row
	if err := r.ForEachRow(func(row Row) error { got = append(got, row); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 1000} {
		rows := genRows(n)
		file, _ := encodeRows(t, rows, 64)
		if err := sameRows(rows, readAll(t, file)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRoundTripViaRebuild(t *testing.T) {
	rows := genRows(777)
	file, dataLen := encodeRows(t, rows, 100)
	// Chop off the index: the reader must rebuild from block footers.
	if err := sameRows(rows, readAll(t, file[:dataLen])); err != nil {
		t.Fatal(err)
	}
}

func TestSniff(t *testing.T) {
	file, _ := encodeRows(t, genRows(10), 8)
	if err := checkHeader(file); err != nil {
		t.Errorf("colf file refused: %v", err)
	}
	for _, bad := range [][]byte{nil, []byte("COLF"), []byte(`{"probe":1}`), []byte("XOLF\x02\x00\x00\n....")} {
		if checkHeader(bad) == nil {
			t.Errorf("false sniff on %q", bad)
		}
	}
}

func TestZoneMaps(t *testing.T) {
	rows := genRows(500)
	file, _ := encodeRows(t, rows, 128)
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	blocks := r.Blocks()
	if len(blocks) != 4 { // ceil(500/128)
		t.Fatalf("%d blocks, want 4", len(blocks))
	}
	if r.Rows() != 500 {
		t.Fatalf("Rows() = %d", r.Rows())
	}
	i := 0
	for bi, b := range blocks {
		z := Zone{}
		for k := 0; k < b.Zone.Rows; k++ {
			z.observe(rows[i])
			i++
		}
		got := b.Zone
		// The per-region aggregates must tile the block exactly.
		if len(got.Regions) == 0 {
			t.Fatalf("block %d carries no region aggregates", bi)
		}
		var sumRows, sumDelivered int
		var sumRTT float64
		for _, rz := range got.Regions {
			sumRows += rz.Rows
			sumDelivered += rz.Delivered
			sumRTT += rz.RTTSum
		}
		if sumRows != got.Rows || sumDelivered != got.Delivered {
			t.Errorf("block %d region aggregates cover %d rows/%d delivered, zone has %d/%d",
				bi, sumRows, sumDelivered, got.Rows, got.Delivered)
		}
		if math.Abs(sumRTT-got.RTTSum) > 1e-6*math.Abs(got.RTTSum) {
			t.Errorf("block %d region RTT sums %.9g, zone RTTSum %.9g", bi, sumRTT, got.RTTSum)
		}
		got.Regions = nil
		if !reflect.DeepEqual(z, got) {
			t.Errorf("block %d zone %+v, recomputed %+v", bi, got, z)
		}
	}
}

func TestPredicateZoneAndRow(t *testing.T) {
	rows := genRows(600)
	file, _ := encodeRows(t, rows, 64)
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)
	preds := []*Predicate{
		nil,
		{},
		{Since: base.Add(6 * time.Hour), Until: base.Add(9 * time.Hour)},
		{Until: base.Add(3 * time.Hour)},
		{MinProbe: 100, MaxProbe: 120},
		{RegionPrefix: "Amazon/"},
		{RegionPrefix: "Nowhere/"},
		{Since: base.Add(100 * 24 * time.Hour)},
	}
	for pi, p := range preds {
		// Ground truth: row-by-row filtering over the raw rows.
		var want int
		for _, row := range rows {
			if p.MatchRow(row.Probe, row.TimeNano, row.Region) {
				want++
			}
		}
		// Zone-based skipping plus row filtering must agree, and skipped
		// blocks must contain no matching rows.
		var got, skippedBlocks int
		dec := NewBlockDecoder()
		for _, bi := range r.Blocks() {
			blk, err := dec.Decode(bytes.NewReader(file), bi)
			if err != nil {
				t.Fatal(err)
			}
			if !p.MatchZone(bi.Zone) {
				skippedBlocks++
				for k := 0; k < blk.Rows(); k++ {
					row := blk.Row(k)
					if p.MatchRow(row.Probe, row.TimeNano, row.Region) {
						t.Fatalf("pred %d skipped a block containing matching row %+v", pi, row)
					}
				}
				continue
			}
			for k := 0; k < blk.Rows(); k++ {
				row := blk.Row(k)
				if p.MatchRow(row.Probe, row.TimeNano, row.Region) {
					got++
				}
			}
		}
		if got != want {
			t.Errorf("pred %d: %d rows via zones, %d via full filter", pi, got, want)
		}
		if p != nil && pi >= 6 && skippedBlocks != len(r.Blocks()) {
			t.Errorf("pred %d: impossible predicate skipped only %d/%d blocks", pi, skippedBlocks, len(r.Blocks()))
		}
	}
}

func TestPredicateEmpty(t *testing.T) {
	var p *Predicate
	if !p.Empty() || !(&Predicate{}).Empty() {
		t.Error("nil/zero predicate not Empty")
	}
	if (&Predicate{RegionPrefix: "x"}).Empty() || (&Predicate{MinProbe: 1}).Empty() {
		t.Error("constrained predicate reported Empty")
	}
}

func TestCorruptionDetected(t *testing.T) {
	rows := genRows(300)
	file, dataLen := encodeRows(t, rows, 64)
	// Flip every 97th byte of the data region (past the header) one at a
	// time; each must surface an error somewhere in the read path.
	for off := int64(HeaderSize); off < dataLen; off += 97 {
		mut := append([]byte(nil), file...)
		mut[off] ^= 0x41
		if err := decodeErr(mut); err == nil {
			t.Fatalf("corruption at byte %d went unnoticed", off)
		}
	}
}

// decodeErr reads the whole stream and returns the first error, trying
// both the indexed and the rebuild path.
func decodeErr(file []byte) error {
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		return err
	}
	return r.ForEachRow(func(Row) error { return nil })
}

func TestTornTailRejected(t *testing.T) {
	rows := genRows(200)
	_, dataLen := encodeRows(t, rows, 64)
	file, _ := encodeRows(t, rows, 64)
	// A crash mid-block-write leaves a partial block and no index.
	torn := file[:dataLen-5]
	if _, err := NewReader(bytes.NewReader(torn), int64(len(torn))); err == nil {
		t.Fatal("torn tail accepted")
	}
	if !strings.Contains(fmt.Sprint(decodeErr(torn)), "torn") {
		t.Errorf("torn-tail error not descriptive: %v", decodeErr(torn))
	}
}

func TestBlocksToBoundaries(t *testing.T) {
	rows := genRows(256)
	file, dataLen := encodeRows(t, rows, 64)
	r := bytes.NewReader(file)
	blocks, err := BlocksTo(r, dataLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("%d blocks, want 4", len(blocks))
	}
	// Every block boundary is a valid resume point.
	for i, b := range blocks {
		prefix, err := BlocksTo(r, b.Off)
		if err != nil {
			t.Fatalf("boundary %d: %v", b.Off, err)
		}
		if len(prefix) != i {
			t.Fatalf("boundary %d: %d blocks, want %d", b.Off, len(prefix), i)
		}
	}
	// Mid-block offsets are rejected.
	if _, err := BlocksTo(r, blocks[1].Off+3); err == nil {
		t.Error("mid-block offset accepted")
	}
	if _, err := BlocksTo(r, 3); err == nil {
		t.Error("mid-header offset accepted")
	}
}

func TestWriterResumeAppends(t *testing.T) {
	rows := genRows(500)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetBlockRows(64)
	for _, r := range rows[:300] {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	boundary := int64(w.BytesWritten())
	// Simulate a crash with garbage after the boundary, then resume:
	// truncate and append the remaining rows with a new writer.
	file := append(append([]byte(nil), buf.Bytes()...), "GARBAGE"...)
	file = file[:boundary]
	existing, err := BlocksTo(bytes.NewReader(file), boundary)
	if err != nil {
		t.Fatal(err)
	}
	var tail bytes.Buffer
	w2 := NewWriterAt(&tail, boundary, existing)
	for _, r := range rows[300:] {
		if err := w2.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Finish(); err != nil {
		t.Fatal(err)
	}
	full := append(file, tail.Bytes()...)
	if err := sameRows(rows, readAll(t, full)); err != nil {
		t.Fatal(err)
	}
	if w2.Count() != 200 {
		t.Errorf("resumed writer Count = %d", w2.Count())
	}
}

func TestFlushMidBlockKeepsRoundTrip(t *testing.T) {
	rows := genRows(150)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetBlockRows(64)
	for i, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		if i%37 == 0 { // checkpoint-style partial-block flushes
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := sameRows(rows, readAll(t, buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAfterFinishRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Row{Probe: 1, Region: "r", RTT: 1}); err == nil {
		t.Error("write after Finish accepted")
	}
	// An empty finished file still opens as an empty dataset.
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Blocks()) != 0 || r.Rows() != 0 {
		t.Errorf("empty file has %d blocks, %d rows", len(r.Blocks()), r.Rows())
	}
}

func TestLosslessFloatAndExtremeRows(t *testing.T) {
	rows := []Row{
		{Probe: 1, TimeNano: 0, Region: "", RTT: math.Pi, Lost: false},
		{Probe: 1 << 40, TimeNano: -5, Region: strings.Repeat("長い地域/", 40), RTT: math.SmallestNonzeroFloat64},
		{Probe: -3, TimeNano: math.MaxInt64, Region: "r", RTT: math.Inf(1), Lost: true},
		{Probe: 0, TimeNano: math.MinInt64, Region: "r", RTT: math.NaN(), Lost: true},
		{Probe: 2, TimeNano: 1, Region: "\x00\xff", RTT: -0.0},
	}
	file, _ := encodeRows(t, rows, 2)
	if err := sameRows(rows, readAll(t, file)); err != nil {
		t.Fatal(err)
	}
}

func TestSizeAdvantage(t *testing.T) {
	rows := genRows(20000)
	file, _ := encodeRows(t, rows, DefaultBlockRows)
	perRow := float64(len(file)) / float64(len(rows))
	if perRow > 25 {
		t.Errorf("encoded size %.1f bytes/row, want well under a JSONL line (~90)", perRow)
	}
}
