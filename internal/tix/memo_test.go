package tix_test

import (
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/tix"
)

// These tests pin the edge codes: a block a window cuts is decoded the
// first time, its rows stay resident as one code each, and every later
// window that cuts it — through any View — counts them without reading
// the store, with answers no different from a decode or a scan.

// countingReader counts the store bytes read through it.
type countingReader struct {
	r     io.ReaderAt
	bytes atomic.Int64
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	c.bytes.Add(int64(len(p)))
	return c.r.ReadAt(p, off)
}

// writeStore writes samples as a binary store under the fixture's meta,
// sealing a block after every index in cuts, and returns its path and
// block list.
func writeStore(t *testing.T, f *fixture, samples []results.Sample, cuts func(i int) bool) (string, []colf.BlockInfo) {
	t.Helper()
	store, sink, err := results.Create(t.TempDir(), f.store.Meta(), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if err := sink.Write(s); err != nil {
			t.Fatal(err)
		}
		if cuts(i) {
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
	return store.SamplesPath(), append([]colf.BlockInfo(nil), r.Blocks()...)
}

// scanReference answers [since, until) the way an engine without an
// index does: core.WindowCDFPass under a predicate scan of the store.
func scanReference(t *testing.T, f *fixture, path string, since, until time.Time) map[geo.Continent]*stats.Dist {
	t.Helper()
	var passes []*core.WindowCDFPass
	cfg := scan.Config{
		Path:      path,
		Workers:   1,
		Predicate: &colf.Predicate{Since: since, Until: until},
		NewPasses: func(int) ([]scan.Pass, error) {
			p := core.NewWindowCDFPass(f.world.Index)
			passes = append(passes, p)
			return []scan.Pass{p}, nil
		},
	}
	if _, err := scan.File(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := passes[0].Report()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[geo.Continent]*stats.Dist)
	for _, ct := range rep.Continents() {
		out[ct], _ = rep.Dist(ct)
	}
	return out
}

// TestEdgeCodesDifferential: over a store whose rounds straddle blocks
// and whose rows include lost ones and probes the index does not
// resolve, each window is asked cold — on a freshly opened index, so
// every block it cuts decodes — then warm through another View, which
// must decode nothing. Rows, Delivered, every curve and every quantile
// of both equal the index-less scan's (and the raw samples' row counts),
// for windows with both ends in one block, ends exactly on a round's
// timestamp, and ends at random seconds.
func TestEdgeCodesDifferential(t *testing.T) {
	f := getFixture(t)
	tbl := f.world.Index.ContinentTable()
	var resolved []int
	for id, ct := range tbl {
		if ct != geo.ContinentUnknown {
			resolved = append(resolved, id)
		}
	}
	rng := rand.New(rand.NewSource(41))
	start := f.store.Meta().Start
	var samples []results.Sample
	var rounds []time.Time
	for r := 0; r < 60; r++ {
		at := start.Add(time.Duration(r) * 30 * time.Minute)
		rounds = append(rounds, at)
		for i := 0; i < 40; i++ {
			s := results.Sample{Region: "synth/r", Time: at, ProbeID: resolved[rng.Intn(len(resolved))],
				RTTms: 0.5 + 450*rng.Float64(), Lost: rng.Intn(12) == 0}
			if rng.Intn(15) == 0 {
				s.ProbeID = len(tbl) + rng.Intn(5) // no continent: unresolved
			}
			samples = append(samples, s)
		}
	}
	// 97-row blocks: most hold parts of three rounds, cut mid-round.
	path, blocks := writeStore(t, f, samples, func(i int) bool { return (i+1)%97 == 0 })
	sf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	tixPath := filepath.Join(t.TempDir(), "samples.tix")
	built, err := tix.Open(tixPath, f.binding, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Extend(sf, blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	built.Close()

	type window struct{ since, until time.Time }
	wins := []window{
		{rounds[3], rounds[4]},                        // one round, both ends in one block
		{rounds[10], rounds[31]},                      // both ends on round timestamps
		{rounds[7].Add(time.Second), rounds[8]},       // both ends in one block, one on a round
		{rounds[20], rounds[20].Add(time.Nanosecond)}, // a single timestamp
	}
	for i := 0; i < 40; i++ {
		a, b := rng.Intn(30*60*60), rng.Intn(30*60*60)
		if a > b {
			a, b = b, a
		}
		wins = append(wins, window{start.Add(time.Duration(a) * time.Second), start.Add(time.Duration(b) * time.Second)})
	}
	oneBlock := 0
	for i, w := range wins {
		ix, err := tix.Open(tixPath, f.binding, blocks, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := ix.View().Query(context.Background(), sf, blocks, w.since, w.until, f.world.Index)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := ix.View().Query(context.Background(), sf, blocks, w.since, w.until, f.world.Index)
		if err != nil {
			t.Fatal(err)
		}
		if c, h := cold.Stats, warm.Stats; c.EdgeDecodes != c.EdgeBlocks || h.EdgeDecodes != 0 || h.EdgeBlocks != c.EdgeBlocks {
			t.Fatalf("window %d: cold cut %d blocks and decoded %d, warm cut %d and decoded %d",
				i, c.EdgeBlocks, c.EdgeDecodes, h.EdgeBlocks, h.EdgeDecodes)
		}
		if cold.Stats.EdgeBlocks == 1 && cold.Stats.Nodes == 0 {
			oneBlock++
		}
		want := scanReference(t, f, path, w.since, w.until)
		_, rows, delivered := f.refFoldSamples(t, samples, w.since, w.until)
		for name, res := range map[string]*tix.Result{"cold": cold, "warm": warm} {
			if res.Rows != rows || res.Delivered != delivered {
				t.Fatalf("window %d, %s: rows/delivered %d/%d, reference %d/%d", i, name, res.Rows, res.Delivered, rows, delivered)
			}
			assertCurvesIdentical(t, res, want)
			assertQuantilesIdentical(t, res, want)
		}
		ix.Close()
	}
	if oneBlock < 2 {
		t.Fatalf("only %d windows had both ends in one block", oneBlock)
	}
}

// cutWindow returns a window over the fixture whose ends are round
// starts inside blocks a and b (a < b): it cuts exactly those two.
func cutWindow(t *testing.T, f *fixture, a, b int) (since, until time.Time) {
	t.Helper()
	inside := func(blk int) time.Time {
		for i := blk*fixBlockRows + 1; i < (blk+1)*fixBlockRows && i < len(f.samples); i++ {
			if !f.samples[i].Time.Equal(f.samples[i-1].Time) {
				return f.samples[i].Time
			}
		}
		t.Fatalf("block %d starts no round after its first row", blk)
		return time.Time{}
	}
	return inside(a), inside(b)
}

// TestWarmEdgeReadsNoStore: the first window to cut two blocks reads
// both from the store; the same window again, through a later View,
// reads not one store byte and answers the same.
func TestWarmEdgeReadsNoStore(t *testing.T) {
	f := getFixture(t)
	ix := f.build(t, filepath.Join(t.TempDir(), "samples.tix"), f.blocks)
	store := &countingReader{r: f.openSamples(t)}
	since, until := cutWindow(t, f, 3, 9)
	want, rows, delivered := f.refFold(t, since, until)
	for pass, wantRead := range []bool{true, false} {
		store.bytes.Store(0)
		res, err := ix.View().Query(context.Background(), store, f.blocks, since, until, f.world.Index)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.EdgeBlocks != 2 || (st.EdgeDecodes == 2) != wantRead || (store.bytes.Load() > 0) != wantRead {
			t.Fatalf("pass %d: cut %d blocks, decoded %d, read %d store bytes", pass, st.EdgeBlocks, st.EdgeDecodes, store.bytes.Load())
		}
		if res.Rows != rows || res.Delivered != delivered {
			t.Fatalf("pass %d: rows/delivered %d/%d, reference %d/%d", pass, res.Rows, res.Delivered, rows, delivered)
		}
		assertCurvesIdentical(t, res, want)
	}
	if _, _, codes := ix.ResidentBytes(); codes < 2*2*fixBlockRows {
		t.Fatalf("two coded blocks of %d rows hold %d resident bytes", fixBlockRows, codes)
	}
}

// TestBackwardTimeFailsQuery: a block whose time column steps backwards
// has no row range for a window, so a window that cuts it is an error —
// every time, with no codes kept — while a window that covers it whole
// still composes from its record.
func TestBackwardTimeFailsQuery(t *testing.T) {
	f := getFixture(t)
	start := f.store.Meta().Start
	var samples []results.Sample
	for _, h := range []int{0, 1, 3, 2, 4, 5} {
		for _, id := range []int{f.samples[0].ProbeID, f.samples[1].ProbeID} {
			samples = append(samples, results.Sample{Region: "synth/r", Time: start.Add(time.Duration(h) * time.Hour), ProbeID: id, RTTms: 20 + float64(h)})
		}
	}
	path, blocks := writeStore(t, f, samples, func(i int) bool { return i == 3 || i == 7 })
	sf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	ix, err := tix.Open(filepath.Join(t.TempDir(), "samples.tix"), f.binding, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.Extend(sf, blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	// Block 1 holds hours 3 then 2: a window from 2h30 cuts it.
	for pass := 0; pass < 2; pass++ {
		_, err := ix.View().Query(context.Background(), sf, blocks, start.Add(150*time.Minute), time.Time{}, f.world.Index)
		if err == nil || !strings.Contains(err.Error(), "backwards") {
			t.Fatalf("pass %d: window cutting a block whose time steps back: err = %v", pass, err)
		}
	}
	if _, _, codes := ix.ResidentBytes(); codes != 0 {
		t.Fatalf("a failed block left %d bytes of codes", codes)
	}
	res, err := ix.View().Query(context.Background(), sf, blocks, start.Add(2*time.Hour), time.Time{}, f.world.Index)
	if err != nil || res.Stats.Nodes != 2 || res.Stats.EdgeBlocks != 0 {
		t.Fatalf("window covering the block: %v, stats %+v", err, res.Stats)
	}
	want, rows, delivered := f.refFoldSamples(t, samples, start.Add(2*time.Hour), time.Time{})
	if res.Rows != rows || res.Delivered != delivered {
		t.Fatalf("rows/delivered %d/%d, reference %d/%d", res.Rows, res.Delivered, rows, delivered)
	}
	assertCurvesIdentical(t, res, want)
}

// TestCRCDamagedEdgeBlock: a store block damaged after the index was
// built fails its CRC when a window cuts it. It publishes no codes, so
// every later window that cuts it fails again (each one a fallback to
// the scan, in a serving engine), while a window that composes it whole
// from its record still answers.
func TestCRCDamagedEdgeBlock(t *testing.T) {
	f := getFixture(t)
	ix := f.build(t, filepath.Join(t.TempDir(), "samples.tix"), f.blocks)
	data, err := os.ReadFile(f.store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	bi := f.blocks[5]
	data[bi.Off+bi.Len/2] ^= 0x5A
	damaged := filepath.Join(t.TempDir(), "samples.bin")
	if err := os.WriteFile(damaged, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := os.Open(damaged)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	since, until := cutWindow(t, f, 5, 9)
	for pass := 0; pass < 3; pass++ {
		_, err := ix.View().Query(context.Background(), sf, f.blocks, since, until, f.world.Index)
		if err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("pass %d: window cutting a damaged block: err = %v", pass, err)
		}
		if _, _, codes := ix.ResidentBytes(); codes != 0 {
			t.Fatalf("pass %d: %d bytes of codes resident after a CRC failure", pass, codes)
		}
	}
	since, until = cutWindow(t, f, 3, 9)
	res, err := ix.View().Query(context.Background(), sf, f.blocks, since, until, f.world.Index)
	if err != nil {
		t.Fatalf("window composing the damaged block: %v", err)
	}
	want, rows, delivered := f.refFold(t, since, until)
	if res.Rows != rows || res.Delivered != delivered {
		t.Fatalf("rows/delivered %d/%d, reference %d/%d", res.Rows, res.Delivered, rows, delivered)
	}
	assertCurvesIdentical(t, res, want)
}

// TestViewsShareEdgeCodes: a View taken before an Extend and one taken
// after share each block's codes. The old view fills a block's codes and
// the new one finds them; then both views query concurrently — windows
// cut blocks neither has coded yet, racing to fill them — and every
// answer matches the reference, after which neither view decodes again.
// Run under -race.
func TestViewsShareEdgeCodes(t *testing.T) {
	f := getFixture(t)
	sf := f.openSamples(t)
	ctx := context.Background()
	prefix := len(f.blocks) / 2
	ix := f.build(t, filepath.Join(t.TempDir(), "samples.tix"), f.blocks[:prefix])
	old := ix.View()
	first := [2]time.Time{}
	first[0], first[1] = cutWindow(t, f, 2, 4)
	if res, err := old.Query(ctx, sf, f.blocks, first[0], first[1], f.world.Index); err != nil || res.Stats.EdgeDecodes != 2 {
		t.Fatalf("old view's first window: %v, stats %+v", err, res.Stats)
	}
	if err := ix.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	views := []*tix.View{old, ix.View()}
	if res, err := views[1].Query(ctx, sf, f.blocks, first[0], first[1], f.world.Index); err != nil || res.Stats.EdgeDecodes != 0 {
		t.Fatalf("new view re-decoded what the old one coded: %v, stats %+v", err, res.Stats)
	}

	wins := [][2]time.Time{first}
	for b := 5; b+3 < prefix; b += 3 {
		var w [2]time.Time
		w[0], w[1] = cutWindow(t, f, b, b+2)
		wins = append(wins, w)
	}
	type answer struct {
		w   [2]time.Time
		res *tix.Result
		err error
	}
	answers := make([][]answer, 4)
	var wg sync.WaitGroup
	for g := range answers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range wins {
				w := wins[(g+i)%len(wins)]
				res, err := views[(g+i)%2].Query(ctx, sf, f.blocks, w[0], w[1], f.world.Index)
				answers[g] = append(answers[g], answer{w, res, err})
			}
		}(g)
	}
	wg.Wait()
	for _, as := range answers {
		for _, a := range as {
			if a.err != nil {
				t.Fatal(a.err)
			}
			want, rows, delivered := f.refFold(t, a.w[0], a.w[1])
			if a.res.Rows != rows || a.res.Delivered != delivered {
				t.Fatalf("rows/delivered %d/%d, reference %d/%d", a.res.Rows, a.res.Delivered, rows, delivered)
			}
			assertCurvesIdentical(t, a.res, want)
		}
	}
	_, _, codes := ix.ResidentBytes()
	for _, v := range views {
		for _, w := range wins {
			res, err := v.Query(ctx, sf, f.blocks, w[0], w[1], f.world.Index)
			if err != nil || res.Stats.EdgeBlocks != 2 || res.Stats.EdgeDecodes != 0 {
				t.Fatalf("after the race: %v, stats %+v", err, res.Stats)
			}
		}
		if got := v.EdgeCodeBytes(); got != codes {
			t.Fatalf("a view sees %d bytes of codes, the index %d", got, codes)
		}
	}
}
