package tix_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/tix"
	"repro/internal/world"
)

// The tix tests drive a real campaign store sealed into many small
// blocks, and hold the index to the tentpole bar: whatever window is
// asked, composing block records must produce the same sample multiset
// — hence bit-identical quantiles and curves — as a cold fold over the
// raw samples.

// fixture is one built world + sealed binary store shared by the tests
// (read-only after construction).
type fixture struct {
	world   *world.World
	samples []results.Sample
	store   *results.Store
	blocks  []colf.BlockInfo
	binding tix.Binding
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

const fixBlockRows = 512 // small sealed blocks => many records per window

func getFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() { fix, fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func buildFixture() (*fixture, error) {
	w, err := world.Build(world.Config{Seed: 3, Probes: 200})
	if err != nil {
		return nil, err
	}
	cfg := atlas.TestCampaign()
	cfg.End = cfg.Start.Add(6 * 24 * time.Hour) // 48 rounds ≈ 19K samples
	var mem results.Memory
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, mem.Add); err != nil {
		return nil, err
	}
	var samples []results.Sample
	mem.ForEach(func(s results.Sample) error {
		samples = append(samples, s)
		return nil
	})

	dir, err := os.MkdirTemp("", "tixfix")
	if err != nil {
		return nil, err
	}
	meta := cfg.Meta(3, w.Probes.Len(), w.Catalog.Len())
	store, sink, err := results.Create(dir, meta, results.FormatBinary)
	if err != nil {
		return nil, err
	}
	for i, s := range samples {
		if err := sink.Write(s); err != nil {
			return nil, err
		}
		// Seal small blocks so the store holds a few dozen of them.
		if (i+1)%fixBlockRows == 0 {
			if err := sink.Flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	blocks := append([]colf.BlockInfo(nil), r.Blocks()...)
	closer.Close()
	return &fixture{
		world:   w,
		samples: samples,
		store:   store,
		blocks:  blocks,
		binding: tix.Binding{
			PassSet: tix.PassSetCDF,
			Index:   w.Index.Fingerprint(),
			Meta:    core.MetaFingerprint(meta),
		},
	}, nil
}

// openSamples returns a ReaderAt over the samples file.
func (f *fixture) openSamples(t testing.TB) *os.File {
	t.Helper()
	sf, err := os.Open(f.store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sf.Close() })
	return sf
}

// build opens a fresh index at path and extends it over blocks.
func (f *fixture) build(t testing.TB, path string, blocks []colf.BlockInfo) *tix.Index {
	t.Helper()
	ix, err := tix.Open(path, f.binding, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if err := ix.Extend(f.openSamples(t), blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	return ix
}

// refFold is the ground truth: a cold in-memory fold of every sample
// in [since, until), with exactly the pass semantics of
// core.WindowCDFPass — lost rows skipped, unknown probes skipped,
// delivered RTTs grouped by the probe's continent.
func (f *fixture) refFold(t testing.TB, since, until time.Time) (map[geo.Continent]*stats.Dist, uint64, uint64) {
	return f.refFoldSamples(t, f.samples, since, until)
}

func (f *fixture) refFoldSamples(t testing.TB, samples []results.Sample, since, until time.Time) (map[geo.Continent]*stats.Dist, uint64, uint64) {
	t.Helper()
	dists := make(map[geo.Continent]*stats.Dist)
	var rows, delivered uint64
	for _, s := range samples {
		if !since.IsZero() && s.Time.Before(since) {
			continue
		}
		if !until.IsZero() && !s.Time.Before(until) {
			continue
		}
		rows++
		if s.Lost {
			continue
		}
		delivered++
		if !f.world.Index.Known(s.ProbeID) {
			continue
		}
		ct, ok := f.world.Index.Continent(s.ProbeID)
		if !ok {
			continue
		}
		d := dists[ct]
		if d == nil {
			d = &stats.Dist{}
			dists[ct] = d
		}
		if err := d.Add(s.RTTms); err != nil {
			t.Fatal(err)
		}
	}
	return dists, rows, delivered
}

// assertQuantilesIdentical holds the slab path to the reference: per
// continent, the same sample count and a dense quantile sweep that is
// bit-identical. Identical multisets make every quantile identical; any
// drift is a real divergence.
func assertQuantilesIdentical(t testing.TB, res *tix.Result, want map[geo.Continent]*stats.Dist) {
	t.Helper()
	for _, ct := range geo.Continents() {
		wd := want[ct]
		wn := 0
		if wd != nil {
			wn = wd.N()
		}
		if res.N(ct) != wn {
			t.Fatalf("%v: index has %d samples, reference %d", ct, res.N(ct), wn)
		}
		if wn == 0 {
			continue
		}
		for q := 0; q <= 100; q++ {
			gq, err1 := res.Quantile(ct, float64(q)/100)
			wq, err2 := wd.Quantile(float64(q) / 100)
			if err1 != nil || err2 != nil {
				t.Fatalf("%v: quantile errors %v / %v", ct, err1, err2)
			}
			if math.Float64bits(gq) != math.Float64bits(wq) {
				t.Fatalf("%v: q%d = %v via index, %v via reference", ct, q, gq, wq)
			}
		}
	}
}

// assertCurvesIdentical holds the curve path — resident grids and
// count-only folds, no distribution touched — to the same reference:
// per continent, N and every curve point must equal what the reference
// distribution sweeps out.
func assertCurvesIdentical(t testing.TB, res *tix.Result, want map[geo.Continent]*stats.Dist) {
	t.Helper()
	grid := core.DefaultGrid()
	var live []geo.Continent
	for _, ct := range geo.Continents() {
		wd := want[ct]
		if wd == nil || wd.N() == 0 {
			if res.N(ct) != 0 || res.Curve(ct) != nil {
				t.Fatalf("%v: index counts %d samples, reference none", ct, res.N(ct))
			}
			continue
		}
		live = append(live, ct)
		if res.N(ct) != wd.N() {
			t.Fatalf("%v: index counts %d samples, reference %d", ct, res.N(ct), wd.N())
		}
		wc, err := wd.Curve(grid)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Curve(ct), wc) {
			t.Fatalf("%v: composed curve diverges from the reference sweep", ct)
		}
	}
	if !reflect.DeepEqual(res.Continents(), live) {
		t.Fatalf("continents %v, reference %v", res.Continents(), live)
	}
}

// sampleTime picks the timestamp of the i-th sample (clamped).
func (f *fixture) sampleTime(i int) time.Time {
	if i < 0 {
		i = 0
	}
	if i >= len(f.samples) {
		i = len(f.samples) - 1
	}
	return f.samples[i].Time
}

// TestQueryMatchesColdFold is the byte-identity gate: across full,
// unbounded, block-splitting, empty and past-frontier windows — plus a
// batch of randomly chosen boundaries — the index-composed window must
// match a cold fold exactly.
func TestQueryMatchesColdFold(t *testing.T) {
	f := getFixture(t)
	if len(f.blocks) < 16 {
		t.Fatalf("fixture sealed only %d blocks; tests need a real tree", len(f.blocks))
	}
	ix := f.build(t, filepath.Join(t.TempDir(), "samples.tix"), f.blocks)
	sf := f.openSamples(t)
	v := ix.View()
	ctx := context.Background()

	start := f.samples[0].Time
	end := f.samples[len(f.samples)-1].Time

	type window struct {
		name         string
		since, until time.Time
	}
	wins := []window{
		{"full", time.Time{}, time.Time{}},
		{"exact-span", start, end.Add(time.Nanosecond)},
		{"open-since", time.Time{}, f.sampleTime(len(f.samples) / 2)},
		{"open-until", f.sampleTime(len(f.samples) / 2), time.Time{}},
		{"mid-block-splitting", f.sampleTime(fixBlockRows / 2).Add(time.Nanosecond), f.sampleTime(len(f.samples) - fixBlockRows/3)},
		{"single-block-interior", f.sampleTime(fixBlockRows / 4), f.sampleTime(fixBlockRows / 2)},
		{"empty-zero-width", start.Add(time.Hour), start.Add(time.Hour)},
		{"empty-before-campaign", start.Add(-48 * time.Hour), start.Add(-24 * time.Hour)},
		{"empty-after-campaign", end.Add(24 * time.Hour), end.Add(48 * time.Hour)},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		a, b := rng.Intn(len(f.samples)), rng.Intn(len(f.samples))
		if a > b {
			a, b = b, a
		}
		wins = append(wins, window{
			name:  "random-" + string(rune('a'+i)),
			since: f.sampleTime(a),
			until: f.sampleTime(b),
		})
	}

	for _, w := range wins {
		t.Run(w.name, func(t *testing.T) {
			res, err := v.Query(ctx, sf, f.blocks, w.since, w.until, f.world.Index)
			if err != nil {
				t.Fatal(err)
			}
			want, rows, delivered := f.refFold(t, w.since, w.until)
			if res.Rows != rows || res.Delivered != delivered {
				t.Fatalf("window covers %d/%d rows/delivered, reference %d/%d",
					res.Rows, res.Delivered, rows, delivered)
			}
			assertCurvesIdentical(t, res, want)
			assertQuantilesIdentical(t, res, want)
		})
	}

	// The full window must actually be served by the records, not by
	// decoding anything: every block composes from its prefix row.
	res, err := v.Query(ctx, sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes != len(f.blocks) || res.Stats.EdgeBlocks+res.Stats.FrontierBlocks != 0 {
		t.Fatalf("full-window query composed %d of %d records and decoded %d blocks",
			res.Stats.Nodes, len(f.blocks), res.Stats.EdgeBlocks+res.Stats.FrontierBlocks)
	}
	if got := res.Stats.Nodes + res.Stats.EdgeBlocks + res.Stats.FrontierBlocks + res.Stats.SkippedBlocks; got != len(f.blocks) {
		t.Fatalf("query accounted for %d of %d blocks", got, len(f.blocks))
	}
}

// TestQueryPastFrontier extends the index over a prefix only: windows
// reaching past the built frontier must fall back to decoding the tail
// blocks and still match the cold fold.
func TestQueryPastFrontier(t *testing.T) {
	f := getFixture(t)
	prefix := len(f.blocks) / 2
	ix := f.build(t, filepath.Join(t.TempDir(), "samples.tix"), f.blocks[:prefix])
	sf := f.openSamples(t)
	v := ix.View()

	res, err := v.Query(context.Background(), sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FrontierBlocks == 0 {
		t.Fatal("no frontier fallback decodes despite a half-built index")
	}
	want, rows, delivered := f.refFold(t, time.Time{}, time.Time{})
	if res.Rows != rows || res.Delivered != delivered {
		t.Fatalf("rows/delivered %d/%d, reference %d/%d", res.Rows, res.Delivered, rows, delivered)
	}
	assertCurvesIdentical(t, res, want)
	assertQuantilesIdentical(t, res, want)
}

// TestIncrementalMatchesBatch pins build determinism: growing the
// index one flush at a time writes the exact same file bytes as one
// shot over the full store, and re-extending an up-to-date index
// appends nothing.
func TestIncrementalMatchesBatch(t *testing.T) {
	f := getFixture(t)
	sf := f.openSamples(t)

	incPath := filepath.Join(t.TempDir(), "inc.tix")
	ix, err := tix.Open(incPath, f.binding, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i <= len(f.blocks); i += 3 {
		if err := ix.Extend(sf, f.blocks[:i], f.world.Index); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	nodes, frontier := ix.Nodes(), ix.Frontier()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if frontier != len(f.blocks) {
		t.Fatalf("frontier %d after full extend of %d blocks", frontier, len(f.blocks))
	}

	batchPath := filepath.Join(t.TempDir(), "batch.tix")
	f.build(t, batchPath, f.blocks)

	inc, err := os.ReadFile(incPath)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inc, batch) {
		t.Fatalf("incremental build (%d bytes) diverges from batch build (%d bytes)", len(inc), len(batch))
	}

	// Reopen: everything validates, nothing rebuilds.
	re, err := tix.Open(incPath, f.binding, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() != nodes || re.Frontier() != frontier {
		t.Fatalf("reopen lost state: %d/%d records, %d/%d frontier", re.Nodes(), nodes, re.Frontier(), frontier)
	}
	if err := re.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(incPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, inc) {
		t.Fatal("idempotent re-extend changed the file")
	}
}

// TestExtendAfterFailedWrite: an Extend whose record write fails (a full
// or failing disk) must leave the index as if the record had never been
// attempted, so the next Extend — the serving layer retries on its next
// refresh — writes the batch build's bytes and composes curves and
// quantiles identical to a cold fold.
func TestExtendAfterFailedWrite(t *testing.T) {
	f := getFixture(t)
	sf := f.openSamples(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	third := len(f.blocks) / 3
	ix := f.build(t, path, f.blocks[:third])

	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rw := tix.SwapFile(ix, ro)
	if err := ix.Extend(sf, f.blocks[:2*third], f.world.Index); err == nil {
		t.Fatal("Extend over a read-only sidecar handle reported no error")
	}
	tix.SwapFile(ix, rw)
	ro.Close()
	if ix.Frontier() != third {
		t.Fatalf("failed Extend moved the frontier to %d, want %d", ix.Frontier(), third)
	}

	if err := ix.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	res, err := ix.View().Query(context.Background(), sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	want, rows, delivered := f.refFold(t, time.Time{}, time.Time{})
	if res.Rows != rows || res.Delivered != delivered {
		t.Fatalf("rows/delivered %d/%d, reference %d/%d", res.Rows, res.Delivered, rows, delivered)
	}
	assertCurvesIdentical(t, res, want)
	assertQuantilesIdentical(t, res, want)

	batchPath := filepath.Join(t.TempDir(), "batch.tix")
	f.build(t, batchPath, f.blocks)
	got, err1 := os.ReadFile(path)
	batch, err2 := os.ReadFile(batchPath)
	if err1 != nil || err2 != nil || !bytes.Equal(got, batch) {
		t.Fatalf("retried Extend diverges from a batch build (errors %v, %v)", err1, err2)
	}
}

// TestBindingInvalidation: an index written under one binding must be
// discarded wholesale when reopened under another — the cold-fallback
// discipline shared with the snapshot sidecar.
func TestBindingInvalidation(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	if ix.Nodes() == 0 {
		t.Fatal("fixture index is empty")
	}
	ix.Close()

	other := f.binding
	other.Meta = "0000000000000000"
	re, err := tix.Open(path, other, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() != 0 || re.Frontier() != 0 {
		t.Fatalf("binding mismatch kept %d records, frontier %d", re.Nodes(), re.Frontier())
	}
	// And the file on disk was actually reset, not just ignored.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 256 {
		t.Fatalf("reset index still holds %d bytes", st.Size())
	}
}

// TestTIXv2Rebuilds: a sidecar in the index's own former layout — magic
// "TIX" 2 and the binding as a tagged first record — holds the same record
// payloads, yet it is reset at open, never parsed, and Extend rebuilds
// the file a fresh build writes.
func TestTIXv2Rebuilds(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	f.build(t, path, f.blocks).Close()
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := snap.AppendString([]byte{0x00}, f.binding.PassSet)
	header = snap.AppendString(header, f.binding.Index)
	header = append(snap.AppendString(header, f.binding.Meta), 1)
	v2 := snap.AppendRecord([]byte("TIX\x02\x00\x00\x00\n"), header)
	for _, rec := range snap.Validate(fresh, f.binding).Records {
		v2 = snap.AppendRecord(v2, rec.Payload)
	}
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := tix.Open(path, f.binding, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() != 0 {
		t.Fatalf("a TIX v2 file kept %d records", re.Nodes())
	}
	if err := re.Extend(f.openSamples(t), f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	if rebuilt, err := os.ReadFile(path); err != nil || !bytes.Equal(rebuilt, fresh) {
		t.Fatalf("rebuild over a TIX v2 file differs from a fresh build (err %v)", err)
	}
}

// TestCorruptionTruncatesSuffix: a flipped byte inside one record must
// drop that record and everything after it, keep the valid prefix, and
// let the next Extend grow the index back to a correct, queryable
// state.
func TestCorruptionTruncatesSuffix(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	nodes := ix.Nodes()
	ix.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)*2/3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := tix.Open(path, f.binding, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() >= nodes {
		t.Fatalf("corruption kept all %d records", re.Nodes())
	}
	sf := f.openSamples(t)
	if err := re.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	if re.Nodes() != nodes {
		t.Fatalf("rebuilt index has %d records, want %d", re.Nodes(), nodes)
	}
	res, err := re.View().Query(context.Background(), sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := f.refFold(t, time.Time{}, time.Time{})
	assertCurvesIdentical(t, res, want)
	assertQuantilesIdentical(t, res, want)
}

// TestTornTailTruncated: a partial trailing record (a crash mid-append)
// is silently dropped at open.
func TestTornTailTruncated(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	nodes := ix.Nodes()
	ix.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := tix.Open(path, f.binding, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() != nodes-1 {
		t.Fatalf("torn tail left %d records, want %d", re.Nodes(), nodes-1)
	}
}

// TestStoreTruncationInvalidatesNodes: shrinking the sealed block list
// (a checkpoint rollback) must drop every record that no longer fits,
// because record byte ranges are pinned to the store's block layout.
func TestStoreTruncationInvalidatesNodes(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	ix.Close()

	short := f.blocks[:2]
	re, err := tix.Open(path, f.binding, short, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Frontier() > len(short) {
		t.Fatalf("frontier %d past the %d-block store", re.Frontier(), len(short))
	}
	sf := f.openSamples(t)
	if err := re.Extend(sf, short, f.world.Index); err != nil {
		t.Fatal(err)
	}
	res, err := re.View().Query(context.Background(), sf, short, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds share timestamps, so the reference must cut by position —
	// the first two blocks hold exactly the first 2*fixBlockRows
	// samples — not by a time window.
	want, _, _ := f.refFoldSamples(t, f.samples[:2*fixBlockRows], time.Time{}, time.Time{})
	assertCurvesIdentical(t, res, want)
	assertQuantilesIdentical(t, res, want)
}
