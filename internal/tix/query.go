package tix

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/snap"
	"repro/internal/stats"
)

// View is an immutable query handle over the block records an Index had
// stored when it was taken. Views are safe for concurrent use and for
// use concurrent with a later Extend on the parent Index.
type View struct {
	f    *os.File
	recs []blockRec
	cum  []prefix
	pool *pools
}

// EdgeCodeBytes reports, by capacity, the edge codes resident in v's records.
func (v *View) EdgeCodeBytes() int64 { return codeBytes(v.recs) }

// QueryStats reports how a window was materialized — the observable
// difference between the index path and a cold scan — and where its
// time went. The slab-path fields (SlabRead, SlabBytes, Select) stay
// zero until the Result is asked for quantiles.
type QueryStats struct {
	// Nodes is how many block records composed the window from their
	// prefix rows — blocks the query never decoded.
	Nodes int
	// EdgeBlocks is how many partially covered blocks the window cut.
	EdgeBlocks int
	// EdgeDecodes is how many of them no window had cut before: decoded.
	EdgeDecodes int
	// FrontierBlocks is how many fully covered blocks lay past the last
	// record and were decoded whole.
	FrontierBlocks int
	// SkippedBlocks is how many blocks the window excluded outright.
	SkippedBlocks int

	// GridCompose is the rest of Query's time: the block walk, and
	// composing prefix rows and folded bins into the window's curves.
	GridCompose time.Duration
	// SlabRead is the time spent reading slab chunks back from the
	// sidecar: pread and CRC check.
	SlabRead time.Duration
	// EdgeDecode is the time spent decoding store blocks — edge and
	// frontier alike — and coding their rows.
	EdgeDecode time.Duration
	// Fold is the time spent folding rows: counting codes on the curve
	// path, sample values on the slab path.
	Fold time.Duration
	// Select is the time spent gathering and selecting order statistics
	// (Result.Quantile), SlabRead excluded.
	Select time.Duration
	// SlabBytes is how many sidecar bytes the window's quantiles read.
	SlabBytes int64
}

// piece is one block a window counts from codes rather than composes:
// an edge block's rows [lo, hi), or all of a block past the last record.
// The slab path decodes it again for those rows' values.
type piece struct {
	block, lo, hi int
	e             *edgeCodes
}

// Result is a materialized window: the row totals [since, until)
// covers and its per-continent sample counts over the figure grid —
// composed eagerly, from prefix rows and folded bins — and, on demand,
// the per-continent order statistics behind quantiles. A Result comes
// from a pool its View shares with the Index and its other Views;
// Release hands it back.
type Result struct {
	Rows      uint64 // rows inside the window
	Delivered uint64 // delivered rows inside the window
	Stats     QueryStats

	// cum[ct][k] counts ct's samples in bins 0..k, cum[ct][curveBins]
	// all of them (see curve.go).
	cum counts

	// The slab path's inputs: the covered runs, whose slab chunks the
	// quantiles read, and the pieces Load refolds under Query's context.
	ctx    context.Context
	v      *View
	store  io.ReaderAt
	blocks []colf.BlockInfo
	runs   [][2]int // covered record runs [i, j)
	pieces []piece

	loaded  bool
	loadErr error
	edge    [numContinents][]float64 // the pieces' samples, unsorted
	buf     []byte                   // the chunks of one slab run, reused
	// gather keeps the last bin orderStat gathered: a type-7 quantile's
	// two ranks nearly always share a bin, so the second reuses it.
	gather struct {
		ct    geo.Continent
		bin   int
		cand  []float64
		valid bool
	}
}

// Continents returns the continents with samples in the window, in
// canonical order.
func (r *Result) Continents() []geo.Continent {
	var out []geo.Continent
	for _, ct := range geo.Continents() {
		if r.N(ct) > 0 {
			out = append(out, ct)
		}
	}
	return out
}

// N returns one continent's sample count: the delivered rows in the
// window whose probes the index resolves there.
func (r *Result) N(ct geo.Continent) int { return int(r.cum[ct][curveBins]) }

// Samples returns the total sample count across continents.
func (r *Result) Samples() int {
	n := 0
	for ct := range r.cum {
		n += r.N(geo.Continent(ct))
	}
	return n
}

// Counts returns one continent's cumulative counts over the fixed
// figure grid (x = 1..400 ms, core.DefaultGrid), composed purely from
// prefix rows and edge folds — no pass over the samples. Element k
// counts the samples <= k+1 ms: the integer Dist.CDF divides by N at
// that grid point, so a curve rendered from these counts is
// bit-identical to one swept from the window's samples. The slice
// aliases r and is valid until Release.
func (r *Result) Counts(ct geo.Continent) []uint64 { return r.cum[ct][:curveBins:curveBins] }

// Release hands r back to its View's pool for a later Query to reuse.
// The counts are zeroed; the edge value lists, slab buffer and gather
// candidates keep their capacity; the references to the view, store,
// block list and codes go, so a pooled Result pins no retired view.
// Neither r nor a slice it returned may be used afterwards. A Result
// never released is simply collected.
func (r *Result) Release() {
	p := r.v.pool
	edge, buf, cand, runs, pieces := r.edge, r.buf[:0], r.gather.cand[:0], r.runs[:0], r.pieces
	clear(pieces) // a frontier block's codes belong to no record
	*r = Result{buf: buf, runs: runs, pieces: pieces[:0]}
	for ct := range edge {
		r.edge[ct] = edge[ct][:0]
	}
	r.gather.cand = cand
	p.results.Put(r)
}

// Query materializes the window [since, until) over the store's sealed
// blocks: each run of fully covered blocks with records composes as
// cum[j] − cum[i], a block the window cuts counts its in-window rows
// from its edge codes — decoded the first time any window cuts it — and
// covered blocks past the last record decode whole.
// Curves and counts compose here, with no sidecar read; quantiles read
// only the slab chunks that hold their ranks' bins, and answer exactly
// what a cold row scan of the same window would. A cut block whose time
// column steps backwards is an error.
//
// blocks must be the same sealed block list the parent Index was
// validated and extended against (or a prefix-consistent extension of
// it — extra blocks past the frontier are decoded). store is the
// samples file; cls resolves probes exactly as at build time. The
// context is checked once per block, here and in Load. The caller may
// Release the Result once done with it.
func (v *View) Query(ctx context.Context, store io.ReaderAt, blocks []colf.BlockInfo, since, until time.Time, cls Continents) (*Result, error) {
	if cls == nil {
		return nil, fmt.Errorf("tix: nil continent resolver")
	}
	begin := time.Now()
	pred := &colf.Predicate{Since: since, Until: until}
	sinceN, untilN := int64(math.MinInt64), int64(math.MaxInt64)
	if !since.IsZero() {
		sinceN = since.UnixNano()
	}
	if !until.IsZero() {
		untilN = until.UnixNano()
	}
	res, _ := v.pool.results.Get().(*Result)
	if res == nil {
		res = new(Result)
	}
	res.ctx, res.v, res.store, res.blocks = ctx, v, store, blocks
	st := &res.Stats
	dec := v.pool.decoder()
	defer v.pool.decoders.Put(dec)

	runStart := -1 // start of the current covered run of records, -1 if none
	flush := func(end int) {
		if runStart >= 0 {
			res.runs = append(res.runs, [2]int{runStart, end})
			st.Nodes += end - runStart
			runStart = -1
		}
	}
	folded := 0 // rows counted from codes
	for i, bi := range blocks {
		if err := ctx.Err(); err != nil {
			res.Release()
			return nil, err
		}
		match := pred.MatchZone(bi.Zone)
		covered := match && pred.CoversZone(bi.Zone)
		if covered && i < len(v.recs) {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		flush(i)
		if !match {
			st.SkippedBlocks++
			continue
		}
		// The window cuts through this block, or it lies past the last
		// record: count the rows it selects from the block's codes.
		if covered {
			st.FrontierBlocks++
		} else {
			st.EdgeBlocks++
		}
		e, err := v.codes(dec, store, i, bi, cls.ContinentTable(), !covered, st)
		if err != nil {
			res.Release()
			return nil, fmt.Errorf("tix: block %d: %w", i, err)
		}
		t1 := time.Now()
		lo, hi := 0, len(e.codes)
		if !covered {
			lo, hi = e.rows(sinceN, untilN)
		}
		e.fold(&res.cum, lo, hi)
		folded += hi - lo
		st.Fold += time.Since(t1)
		res.pieces = append(res.pieces, piece{block: i, lo: lo, hi: hi, e: e})
	}
	flush(len(blocks))

	// Take the row totals from the sentinel row and clear it; sum the
	// codes' per-bin counts cumulatively, then add each run's prefix rows.
	res.Rows = uint64(folded)
	res.Delivered = uint64(folded) - res.cum[geo.ContinentUnknown][codeLost]
	res.cum[geo.ContinentUnknown] = [curveBins + 1]uint64{}
	for ct := range res.cum {
		c := &res.cum[ct]
		for k := 1; k <= curveBins; k++ {
			c[k] += c[k-1]
		}
	}
	for _, run := range res.runs {
		lo, hi := &v.cum[run[0]], &v.cum[run[1]]
		res.Rows += hi.rows - lo.rows
		res.Delivered += hi.delivered - lo.delivered
		for ct := range res.cum {
			c, l, h := &res.cum[ct], &lo.bins[ct], &hi.bins[ct]
			for k := range c {
				c[k] += h[k] - l[k]
			}
		}
	}
	st.GridCompose += time.Since(begin) - st.EdgeDecode - st.Fold
	return res, nil
}

// codes returns block i's edge codes: its record's if a window cut it
// before, else coded from a CRC-checked decode and, if cut, kept there.
func (v *View) codes(dec *colf.BlockDecoder, store io.ReaderAt, i int, bi colf.BlockInfo, tbl []geo.Continent, cut bool, st *QueryStats) (*edgeCodes, error) {
	var slot *atomic.Pointer[edgeCodes]
	if cut && i < len(v.recs) {
		slot = v.recs[i].edge
		if e := slot.Load(); e != nil {
			return e, nil
		}
	}
	t0 := time.Now()
	defer func() { st.EdgeDecode += time.Since(t0) }()
	var cols colf.ColumnSet
	if cut {
		cols = colf.ColTime
		st.EdgeDecodes++
	}
	blk, err := dec.DecodeCols(store, bi, cols)
	if err != nil {
		return nil, err
	}
	e := new(edgeCodes)
	if err := e.code(blk, tbl); err != nil {
		return nil, err
	}
	if slot == nil || slot.CompareAndSwap(nil, e) {
		return e, nil
	}
	return slot.Load(), nil
}

// Load refolds what the window's quantiles select from besides the
// slabs, once: every piece decodes again and appends its rows' values
// to lists sized from the counts. The outcome, error included, is
// remembered; Quantile calls it.
func (r *Result) Load() error {
	if !r.loaded {
		r.loaded = true
		r.loadErr = r.load()
	}
	return r.loadErr
}

func (r *Result) load() error {
	st := &r.Stats
	for ct := range r.edge { // a continent's N less its covered runs'
		n := r.cum[ct][curveBins]
		for _, run := range r.runs {
			n -= r.v.cum[run[1]].bins[ct][curveBins] - r.v.cum[run[0]].bins[ct][curveBins]
		}
		r.edge[ct] = slices.Grow(r.edge[ct][:0], int(n))
	}
	dec := r.v.pool.decoder()
	defer r.v.pool.decoders.Put(dec)
	for _, p := range r.pieces {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		blk, err := dec.DecodeCols(r.store, r.blocks[p.block], 0)
		if err != nil {
			return err
		}
		t1 := time.Now()
		st.EdgeDecode += t1.Sub(t0)
		if blk.Rows() != len(p.e.codes) {
			return fmt.Errorf("tix: block %d holds %d rows, its codes %d", p.block, blk.Rows(), len(p.e.codes))
		}
		p.e.values(&r.edge, blk.RTT, p.lo, p.hi)
		st.Fold += time.Since(t1)
	}
	return nil
}

// Quantile returns one continent's q-quantile RTT over the window — the
// type-7 interpolation stats.Dist.Quantile uses, between order
// statistics orderStat selects — refolding the pieces if no call has yet.
func (r *Result) Quantile(ct geo.Continent, q float64) (float64, error) {
	n := r.N(ct)
	if n == 0 {
		return 0, fmt.Errorf("tix: no data for %v", ct)
	}
	if err := r.Load(); err != nil {
		return 0, err
	}
	t0, read := time.Now(), r.Stats.SlabRead
	v, err := stats.QuantileOf(n, q, func(k int) (float64, error) { return r.orderStat(ct, k) })
	r.Stats.Select += time.Since(t0) - (r.Stats.SlabRead - read)
	return v, err
}

// orderStat returns ct's k-th smallest sample in the window. The
// composed counts bracket rank k to one bin b and say exactly how many
// samples lie below it; the bin's candidates are gathered — from each
// covered slab the run its prefix rows place in bin b, and a filter over
// the edge values — and rank k − below is selected among them in linear
// time. A gather that disagrees with the counts means a slab or a block
// changed after Open: that is an error, never an answer.
func (r *Result) orderStat(ct geo.Continent, k int) (float64, error) {
	c := &r.cum[ct]
	b := sort.Search(curveBins+1, func(j int) bool { return c[j] > uint64(k) })
	var below uint64
	if b > 0 {
		below = c[b-1]
	}
	g := &r.gather
	if !g.valid || g.ct != ct || g.bin != b {
		// Bin b holds the samples in (b, b+1]; bin 0 also everything
		// below, and bin curveBins everything past the grid.
		lo, hi := float64(b), float64(b+1)
		switch b {
		case 0:
			lo = math.Inf(-1)
		case curveBins:
			hi = math.Inf(1)
		}
		g.valid, g.ct, g.bin, g.cand = false, ct, b, g.cand[:0]
		var under uint64
		for _, run := range r.runs {
			for i := run[0]; i < run[1]; i++ {
				// Record i's samples in bins 0..j are cum[i+1] − cum[i] at j.
				l, h := &r.v.cum[i].bins[ct], &r.v.cum[i+1].bins[ct]
				var from uint64
				if b > 0 {
					from = h[b-1] - l[b-1]
				}
				under += from
				if to := h[b] - l[b]; to > from {
					if err := r.gatherRun(i, ct, int(from), int(to), int(h[curveBins]-l[curveBins]), lo, hi); err != nil {
						return 0, err
					}
				}
			}
		}
		for _, v := range r.edge[ct] {
			if v <= lo {
				under++
			} else if v <= hi {
				g.cand = append(g.cand, v)
			}
		}
		if under != below || uint64(len(g.cand)) != c[b]-below {
			return 0, fmt.Errorf("tix: %v bin %d gathered %d candidates over %d, counts say %d over %d",
				ct, b, len(g.cand), under, c[b]-below, below)
		}
		g.valid = true
	}
	return stats.SelectRank(g.cand, k-int(below)), nil
}

// gatherRun appends samples [from, to) of record i's n-sample ct slab,
// which must lie in (lo, hi], to the gather. It reads only the chunks
// holding them, each checked against the CRC taken at validation.
func (r *Result) gatherRun(i int, ct geo.Continent, from, to, n int, lo, hi float64) error {
	t0 := time.Now()
	first, last := 8*from/chunkSize, (8*to-1)/chunkSize
	start, end := first*chunkSize, min((last+1)*chunkSize, 8*n)
	r.buf = slices.Grow(r.buf[:0], end-start)[:end-start]
	if _, err := r.v.f.ReadAt(r.buf, r.v.recs[i].off[ct]+int64(start)); err != nil {
		return fmt.Errorf("tix: block record %d: %w", i, err)
	}
	for c := first; c <= last; c++ {
		if snap.Checksum(r.buf[c*chunkSize-start:min((c+1)*chunkSize, end)-start]) != r.v.recs[i].crc[ct][c] {
			return fmt.Errorf("tix: block record %d: %v slab chunk %d CRC mismatch", i, ct, c)
		}
	}
	r.Stats.SlabBytes += int64(end - start)
	r.Stats.SlabRead += time.Since(t0)
	for j := from; j < to; j++ {
		v := at(r.buf, j-start/8)
		if !(v > lo && v <= hi) {
			return fmt.Errorf("tix: block record %d: %v sample %d is %v, outside bin %d (%v, %v]", i, ct, j, v, r.gather.bin, lo, hi)
		}
		r.gather.cand = append(r.gather.cand, v)
	}
	return nil
}
