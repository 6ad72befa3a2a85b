package tix_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/tix"
)

// These tests pin the split this package makes between the curve path —
// resident prefix rows, a count-only fold, zero sidecar I/O — and the
// slab path behind Quantile, which reads only its rank's bin's chunks.

// TestCurvePathReadsNoSlabs: a query that is only asked for curves reads
// nothing back from the sidecar and runs no selection. A quantile reads
// only the slab chunks that hold its ranks' bin — under a quarter of the
// covered records' bytes over the full window — and asking again for
// the same continent and bin reads nothing more.
func TestCurvePathReadsNoSlabs(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	sf := f.openSamples(t)
	res, err := ix.View().Query(context.Background(), sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes != len(f.blocks) {
		t.Fatalf("full window composed %d of %d records", res.Stats.Nodes, len(f.blocks))
	}
	for _, ct := range res.Continents() {
		if len(res.Counts(ct)) != 400 || res.N(ct) == 0 {
			t.Fatalf("%v: %d grid counts over %d samples", ct, len(res.Counts(ct)), res.N(ct))
		}
	}
	if st := res.Stats; st.SlabBytes != 0 || st.SlabRead != 0 || st.Select != 0 {
		t.Fatalf("curve path touched the slabs: %d bytes, read %v, select %v", st.SlabBytes, st.SlabRead, st.Select)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var covered int64
	for _, rec := range snap.Validate(data, f.binding).Records {
		covered += int64(rec.Len())
	}
	ct := res.Continents()[0]
	if _, err := res.Quantile(ct, 0.5); err != nil {
		t.Fatal(err)
	}
	read := res.Stats.SlabBytes
	if read == 0 || res.Stats.SlabRead == 0 || res.Stats.Select == 0 {
		t.Fatalf("quantile over %d records read %d slab bytes (read %v, select %v)",
			res.Stats.Nodes, read, res.Stats.SlabRead, res.Stats.Select)
	}
	if read*4 >= covered {
		t.Fatalf("%v p50 read %d of the covered records' %d bytes, want under a quarter", ct, read, covered)
	}
	if _, err := res.Quantile(ct, 0.5); err != nil {
		t.Fatal(err)
	}
	if res.Stats.SlabBytes != read {
		t.Fatalf("repeating %v p50 re-read the slabs: %d -> %d bytes", ct, read, res.Stats.SlabBytes)
	}
}

// TestWindowInsideOneBlock: a window cut out of the middle of a single
// block composes no record and decodes exactly that block.
func TestWindowInsideOneBlock(t *testing.T) {
	f := getFixture(t)
	ix := f.build(t, filepath.Join(t.TempDir(), "samples.tix"), f.blocks)
	sf := f.openSamples(t)
	// A round (rounds share one timestamp) that lies wholly inside a
	// block holding other rounds' rows too.
	var since time.Time
	for lo := 0; lo < len(f.samples) && since.IsZero(); {
		hi := lo
		for hi < len(f.samples) && f.samples[hi].Time.Equal(f.samples[lo].Time) {
			hi++
		}
		if b := lo / fixBlockRows; b == (hi-1)/fixBlockRows && hi-lo < fixBlockRows && b < len(f.blocks)-1 {
			since = f.samples[lo].Time
		}
		lo = hi
	}
	if since.IsZero() {
		t.Fatal("no round lies inside a single block")
	}
	until := since.Add(time.Nanosecond)
	res, err := ix.View().Query(context.Background(), sf, f.blocks, since, until, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.Nodes != 0 || st.EdgeBlocks != 1 || st.FrontierBlocks != 0 {
		t.Fatalf("window inside one block assembled as %+v", st)
	}
	want, rows, delivered := f.refFold(t, since, until)
	if res.Rows != rows || res.Delivered != delivered {
		t.Fatalf("rows/delivered %d/%d, reference %d/%d", res.Rows, res.Delivered, rows, delivered)
	}
	assertCurvesIdentical(t, res, want)
	assertQuantilesIdentical(t, res, want)
}

// TestViewBeforeLaterExtend: a view taken over a prefix keeps answering
// over the grown block list after the index extends past it — the new
// blocks decode as whole-block pieces — and agrees with a fresh view.
func TestViewBeforeLaterExtend(t *testing.T) {
	f := getFixture(t)
	sf := f.openSamples(t)
	ctx := context.Background()
	prefix := len(f.blocks) / 3
	ix := f.build(t, filepath.Join(t.TempDir(), "samples.tix"), f.blocks[:prefix])
	old := ix.View()
	if err := ix.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	since := f.sampleTime(fixBlockRows + 7)
	want, rows, delivered := f.refFold(t, since, time.Time{})
	for name, v := range map[string]*tix.View{"old": old, "new": ix.View()} {
		res, err := v.Query(ctx, sf, f.blocks, since, time.Time{}, f.world.Index)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Stats.FrontierBlocks > 0) != (name == "old") {
			t.Fatalf("%s view: %d frontier blocks", name, res.Stats.FrontierBlocks)
		}
		if res.Rows != rows || res.Delivered != delivered {
			t.Fatalf("%s view: rows/delivered %d/%d, reference %d/%d", name, res.Rows, res.Delivered, rows, delivered)
		}
		assertCurvesIdentical(t, res, want)
		assertQuantilesIdentical(t, res, want)
	}
}

// The two hand-cut blocks synthStore seals after its random rounds, at
// these offsets from the campaign start.
const (
	synthChunkyAt = 40 * time.Hour
	synthSingleAt = synthChunkyAt + 30*time.Minute
)

// synthStore writes a small hand-made store: Oceania's probes only ever
// report past the 400 ms grid (a continent with N > 0 and all-zero
// bins), the rest straddle the grid's edges — barely above 0, exactly
// 400, a hair past it — and a few rows are lost. Two hand-cut blocks
// follow, which put the slab chunk edges under test (a chunk is 64
// samples). In the first, Europe's slab is 64 samples in bin 0, 64 in
// bin 5, 200 in bin 10 and 40 past the grid: bin 0's run ends and bin
// 5's starts exactly on a chunk boundary, bin 10's spans four chunks,
// and Oceania holds one sample. In the second, both continents hold
// one: single-value slabs.
func synthStore(t *testing.T, f *fixture) ([]results.Sample, []colf.BlockInfo, string) {
	t.Helper()
	byCt := make(map[geo.Continent][]int)
	for id, ct := range f.world.Index.ContinentTable() {
		if ct != geo.ContinentUnknown {
			byCt[ct] = append(byCt[ct], id)
		}
	}
	if len(byCt[geo.Oceania]) == 0 || len(byCt[geo.Europe]) == 0 {
		t.Fatal("fixture world lacks Oceania or Europe probes")
	}
	edge := []float64{1e-9, 0.25, 1, 1.0000001, 399.5, 400, 400.00000001, 401, 1234.5}
	rng := rand.New(rand.NewSource(17))
	start := f.store.Meta().Start
	var samples []results.Sample
	for round := 0; round < 40; round++ {
		at := start.Add(time.Duration(round) * time.Hour)
		for i := 0; i < 24; i++ {
			s := results.Sample{Region: "synth/r", Time: at, Lost: rng.Intn(11) == 0}
			if i%3 == 0 {
				s.ProbeID = byCt[geo.Oceania][rng.Intn(len(byCt[geo.Oceania]))]
				s.RTTms = 400.5 + 600*rng.Float64()
			} else {
				s.ProbeID = byCt[geo.Europe][rng.Intn(len(byCt[geo.Europe]))]
				s.RTTms = edge[rng.Intn(len(edge))]
			}
			samples = append(samples, s)
		}
	}
	random := len(samples)
	add := func(at time.Duration, ct geo.Continent, v float64) {
		ids := byCt[ct]
		samples = append(samples, results.Sample{Region: "synth/r", Time: start.Add(at), ProbeID: ids[rng.Intn(len(ids))], RTTms: v})
	}
	for j := 1; j <= 64; j++ {
		add(synthChunkyAt, geo.Europe, 0.01*float64(j))
		add(synthChunkyAt, geo.Europe, 5+float64(j)/65)
	}
	for j := 1; j <= 200; j++ {
		add(synthChunkyAt, geo.Europe, 10+float64(j)/201)
	}
	for j := 0; j < 40; j++ {
		add(synthChunkyAt, geo.Europe, 400.5+float64(j))
	}
	add(synthChunkyAt, geo.Oceania, 700)
	chunky := len(samples)
	add(synthSingleAt, geo.Europe, 42.5)
	add(synthSingleAt, geo.Oceania, 800)
	dir := t.TempDir()
	store, sink, err := results.Create(dir, f.store.Meta(), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if err := sink.Write(s); err != nil {
			t.Fatal(err)
		}
		// Random blocks are cut mid-round; the hand-cut ones stand alone.
		if (i < random && (i+1)%50 == 0) || i+1 == random || i+1 == chunky {
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	return samples, append([]colf.BlockInfo(nil), r.Blocks()...), store.SamplesPath()
}

// TestBeyondGridDifferential: randomized windows over the synthetic
// store — samples past the grid, a continent whose bins are all zero,
// values on the bin edges — answer curves and quantiles identical to a
// cold fold, and so does a view taken before a later Extend. The
// quantile kernel's own shapes are pinned on the whole store: a
// bracket of (400, +Inf), a rank in bin 0, equal samples straddling
// the rank. A record whose CRC holds but whose slab is out of order or
// holds a NaN truncates the log at Open.
func TestBeyondGridDifferential(t *testing.T) {
	f := getFixture(t)
	samples, blocks, path := synthStore(t, f)
	sf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	ctx := context.Background()
	tixPath := filepath.Join(t.TempDir(), "samples.tix")
	ix, err := tix.Open(tixPath, f.binding, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.Extend(sf, blocks[:len(blocks)/3], f.world.Index); err != nil {
		t.Fatal(err)
	}
	old := ix.View()
	if err := ix.Extend(sf, blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	start := samples[0].Time
	// Windows 0-2 are fixed: the whole store, then each hand-cut block
	// alone, which the new view composes from its one record.
	fixed := [][2]time.Time{{}, {start.Add(synthChunkyAt), start.Add(synthChunkyAt + 1)}, {start.Add(synthSingleAt), start.Add(synthSingleAt + 1)}}
	rng := rand.New(rand.NewSource(29))
	zeroBins := false
	for i := 0; i < 120; i++ {
		a, b := rng.Intn(41*60), rng.Intn(41*60)
		if a > b {
			a, b = b, a
		}
		since, until := start.Add(time.Duration(a)*time.Minute), start.Add(time.Duration(b)*time.Minute)
		if i < len(fixed) {
			since, until = fixed[i][0], fixed[i][1]
		}
		want, rows, delivered := f.refFoldSamples(t, samples, since, until)
		for name, v := range map[string]*tix.View{"new": ix.View(), "old": old} {
			res, err := v.Query(ctx, sf, blocks, since, until, f.world.Index)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != rows || res.Delivered != delivered {
				t.Fatalf("window %d, %s view: rows/delivered %d/%d, reference %d/%d", i, name, res.Rows, res.Delivered, rows, delivered)
			}
			if i == 0 && (res.Stats.FrontierBlocks > 0) != (name == "old") {
				t.Fatalf("%s view decoded %d whole blocks past its frontier", name, res.Stats.FrontierBlocks)
			}
			if st := res.Stats; i > 0 && i < len(fixed) && name == "new" && (st.Nodes != 1 || st.EdgeBlocks+st.FrontierBlocks != 0) {
				t.Fatalf("window %d over one hand-cut block assembled as %+v", i, st)
			}
			assertCurvesIdentical(t, res, want)
			assertQuantilesIdentical(t, res, want)
			if n := res.N(geo.Oceania); n > 0 {
				if c := res.Counts(geo.Oceania); c[len(c)-1] != 0 {
					t.Fatalf("window %d: Oceania reports only past the grid, yet %d samples lie on it", i, c[len(c)-1])
				}
				zeroBins = true
			}
		}
	}
	if !zeroBins {
		t.Fatal("no window held an all-zero-bin continent")
	}

	full, err := ix.View().Query(ctx, sf, blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := f.refFoldSamples(t, samples, time.Time{}, time.Time{})
	ocMed, err1 := full.Quantile(geo.Oceania, 0.5)
	euMin, err2 := full.Quantile(geo.Europe, 0)
	euMed, err3 := full.Quantile(geo.Europe, 0.5)
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	if ocMed <= 400 || euMin > 1 || want[geo.Europe].N() <= 2*9 {
		t.Fatalf("shapes not reached: Oceania p50 %v (want > 400), Europe p0 %v (want bin 0), %d Europe samples over 9 values",
			ocMed, euMin, want[geo.Europe].N())
	}
	if wantMed, _ := want[geo.Europe].Quantile(0.5); euMed != wantMed {
		t.Fatalf("Europe p50 %v, reference %v", euMed, wantMed)
	}

	ix.Close()
	data, err := os.ReadFile(tixPath)
	if err != nil {
		t.Fatal(err)
	}
	recs := snap.Validate(data, f.binding).Records
	k := len(recs) / 2
	for _, bad := range []float64{-1, math.NaN()} {
		// The last 8 payload bytes are the last sample of the block's
		// highest continent — Oceania's, above 400 ms.
		payload := append([]byte(nil), recs[k].Payload...)
		binary.LittleEndian.PutUint64(payload[len(payload)-8:], math.Float64bits(bad))
		end := recs[k].Off + int64(recs[k].Len())
		img := snap.AppendRecord(append([]byte(nil), data[:recs[k].Off]...), payload)
		if err := os.WriteFile(tixPath, append(img, data[end:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := tix.Open(tixPath, f.binding, blocks, nil)
		if err != nil {
			t.Fatal(err)
		}
		if re.Nodes() != k {
			t.Fatalf("a slab ending in %v kept %d records, want the %d before it", bad, re.Nodes(), k)
		}
		err = re.Extend(sf, blocks, f.world.Index)
		re.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt, err := os.ReadFile(tixPath); err != nil || !bytes.Equal(rebuilt, data) {
			t.Fatalf("rebuild after a slab ending in %v differs (err %v)", bad, err)
		}
	}
}

// TestCorruptSlabAfterOpen damages a slab on disk after Open validated
// it. Curves, which compose from the prefix rows derived at Open, stay
// correct. A byte flipped in a chunk the quantile does not read leaves
// its answer equal to the reference; one flipped in a chunk it reads —
// the low byte of a sample, which keeps it inside its bin — fails that
// chunk's resident CRC, and the quantile errors instead of answering.
func TestCorruptSlabAfterOpen(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	sf := f.openSamples(t)
	v := ix.View()
	want, _, _ := f.refFold(t, time.Time{}, time.Time{})
	w, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// The middle record's largest slab; q is a rank inside the bin of
	// that slab's median sample, away from the bin's ends so both type-7
	// ranks stay in it.
	rec := ix.Nodes() / 2
	var ct geo.Continent
	var off int64
	var n int
	for _, c := range geo.Continents() {
		if o, m := tix.SlabAt(v, rec, c); m > n {
			ct, off, n = c, o, m
		}
	}
	if 8*n <= 2*tix.ChunkSize {
		t.Fatalf("record %d's largest slab holds %d samples, want over two chunks", rec, n)
	}
	raw := make([]byte, 8*n)
	if _, err := w.ReadAt(raw, off); err != nil {
		t.Fatal(err)
	}
	sample := func(j int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:])) }
	bin := math.Ceil(sample(n / 2))
	cdf := func(x float64) int {
		p, err := want[ct].CDF(x)
		if err != nil {
			t.Fatal(err)
		}
		return int(math.Round(p * float64(want[ct].N())))
	}
	below, upto := cdf(bin-1), cdf(bin)
	if upto-below < 4 {
		t.Fatalf("%v bin (%v, %v] holds %d samples, want at least 4", ct, bin-1, bin, upto-below)
	}
	q := float64((below+upto)/2) / float64(want[ct].N()-1)
	wq, err := want[ct].Quantile(q)
	if err != nil {
		t.Fatal(err)
	}
	// The chunks holding the slab's samples in that bin are the ones the
	// quantile reads.
	from, to := n, 0
	for j := 0; j < n; j++ {
		if x := sample(j); x > bin-1 && x <= bin {
			from, to = min(from, j), j+1
		}
	}
	read := [2]int{8 * from / tix.ChunkSize, (8*to - 1) / tix.ChunkSize}
	unread := 0
	if read[0] == 0 {
		unread = (8*n - 1) / tix.ChunkSize
	}
	if unread >= read[0] && unread <= read[1] {
		t.Fatalf("%v bin (%v, %v] fills every chunk of record %d's slab", ct, bin-1, bin, rec)
	}
	flip := func(at int64) {
		var b [1]byte
		if _, err := w.ReadAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x55
		if _, err := w.WriteAt(b[:], at); err != nil {
			t.Fatal(err)
		}
	}
	quantile := func() (*tix.Result, float64, error) {
		res, err := v.Query(context.Background(), sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
		if err != nil {
			t.Fatalf("curve path failed on a corrupt slab: %v", err)
		}
		assertCurvesIdentical(t, res, want)
		got, err := res.Quantile(ct, q)
		return res, got, err
	}

	flip(off + int64(unread*tix.ChunkSize) + 3)
	res, got, err := quantile()
	if err != nil || got != wq || res.Stats.SlabBytes == 0 {
		t.Fatalf("damage in unread chunk %d: %v q%v = %v (%v) after %d bytes, reference %v",
			unread, ct, q, got, err, res.Stats.SlabBytes, wq)
	}
	flip(off + int64(8*from))
	if _, got, err := quantile(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("damage in read chunk %d: %v q%v answered %v, err = %v", read[0], ct, q, got, err)
	}
}

// TestConcurrentQueryDuringExtend runs queries on an old view — which
// decodes the blocks past its frontier and shares the decoder pool, the
// prefix rows and the slab directory — while the index extends past it,
// appending to all three.
// Run under -race; every answer must still match the reference.
func TestConcurrentQueryDuringExtend(t *testing.T) {
	f := getFixture(t)
	sf := f.openSamples(t)
	prefix := len(f.blocks) / 4
	ix := f.build(t, filepath.Join(t.TempDir(), "samples.tix"), f.blocks[:prefix])
	old := ix.View()

	type win struct{ since, until time.Time }
	rng := rand.New(rand.NewSource(3))
	wins := make([]win, 6)
	for i := range wins {
		a, b := rng.Intn(len(f.samples)), rng.Intn(len(f.samples))
		if a > b {
			a, b = b, a
		}
		wins[i] = win{f.sampleTime(a), f.sampleTime(b)}
	}

	// Workers only query, and every fourth asks a quantile, reading slab
	// chunks through the shared directory; the test goroutine checks the
	// answers once they are done.
	type answer struct {
		w   win
		res *tix.Result
		err error
	}
	answers := make([][]answer, 4)
	var wg sync.WaitGroup
	for g := range answers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				w := wins[(g+i)%len(wins)]
				res, err := old.Query(context.Background(), sf, f.blocks, w.since, w.until, f.world.Index)
				if err == nil && i%4 == 0 && res.Samples() > 0 {
					_, err = res.Quantile(res.Continents()[0], 0.9)
				}
				answers[g] = append(answers[g], answer{w, res, err})
			}
		}(g)
	}
	for n := prefix + 2; n < len(f.blocks); n += 2 {
		if err := ix.Extend(sf, f.blocks[:n], f.world.Index); err != nil {
			t.Error(err)
			break
		}
	}
	if err := ix.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Error(err)
	}
	wg.Wait()
	for _, as := range answers {
		for i, a := range as {
			if a.err != nil {
				t.Fatal(a.err)
			}
			want, _, _ := f.refFold(t, a.w.since, a.w.until)
			assertCurvesIdentical(t, a.res, want)
			if i%4 == 0 {
				assertQuantilesIdentical(t, a.res, want)
			}
		}
	}
}
