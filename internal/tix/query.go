package tix

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
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
	f        *os.File
	recs     []blockRec
	cum      []prefix
	decoders *sync.Pool
}

// QueryStats reports how a window was materialized — the observable
// difference between the index path and a cold scan — and where its
// time went. The slab-path fields (SlabRead, SlabBytes, Select) stay
// zero until the Result is asked for quantiles.
type QueryStats struct {
	// Nodes is how many block records composed the window from their
	// prefix rows — blocks the query never decoded.
	Nodes int
	// EdgeBlocks is how many partially covered blocks were decoded and
	// row-filtered at the window boundaries.
	EdgeBlocks int
	// FrontierBlocks is how many fully covered blocks lay past the last
	// record and were decoded whole.
	FrontierBlocks int
	// SkippedBlocks is how many blocks the window excluded outright.
	SkippedBlocks int

	// GridCompose is the time spent composing the covered runs' prefix
	// rows and the folded blocks' bins into the window's curves.
	GridCompose time.Duration
	// SlabRead is the time spent reading the covered records back from
	// the sidecar: pread, CRC check and parse.
	SlabRead time.Duration
	// EdgeDecode is the time spent decoding store blocks — edge and
	// frontier alike.
	EdgeDecode time.Duration
	// Fold is the time spent folding decoded rows: bin counts on the
	// curve path, sample values on the slab path.
	Fold time.Duration
	// Select is the time spent gathering and selecting order statistics
	// (Result.Quantile).
	Select time.Duration
	// SlabBytes is how many sidecar record bytes the window read.
	SlabBytes int64
}

// piece is one block a window decodes rather than composes — an edge
// block (only sel's rows) or a covered block past the last record — kept
// so the slab path can fold its values after the curves were answered
// (decoding again is cheaper than every curve query keeping its column
// buffers alive in case a quantile follows).
type piece struct {
	block int
	cols  colf.ColumnSet // the columns sel needs
	sel   rowSel
}

// Result is a materialized window: the row totals [since, until)
// covers and its per-continent sample counts and CDF curves — composed
// eagerly, from prefix rows and folded bins — and, on demand, the
// per-continent order statistics behind quantiles.
type Result struct {
	Rows      uint64 // rows inside the window
	Delivered uint64 // delivered rows inside the window
	Stats     QueryStats

	// cum[ct][k] counts ct's samples in bins 0..k, cum[ct][curveBins]
	// all of them (see curve.go).
	cum counts

	// The slab path's inputs: Load replays runs and pieces against the
	// same sidecar, store and resolver, under the context Query ran with.
	ctx      context.Context
	sidecar  io.ReaderAt
	recs     []blockRec
	decoders *sync.Pool
	store    io.ReaderAt
	blocks   []colf.BlockInfo
	tbl      []geo.Continent
	runs     [][2]int // covered record runs [i, j)
	pieces   []piece

	loaded  bool
	loadErr error
	slabs   []slabs                  // per covered record, in block order
	edge    [numContinents][]float64 // the pieces' samples, unsorted
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

// Curve returns one continent's CDF curve over the fixed figure grid
// (x = 1..400 ms, core.DefaultGrid), composed purely from prefix rows
// and edge folds — no pass over the samples. Every P value equals
// float64(samples <= x) / float64(N), the exact division Dist.CDF
// performs, so a figure rendered from these points is bit-identical to
// one swept from the window's samples. A continent with no samples has
// no curve.
func (r *Result) Curve(ct geo.Continent) []stats.CDFPoint {
	n := r.cum[ct][curveBins]
	if n == 0 {
		return nil
	}
	pts := make([]stats.CDFPoint, curveBins)
	for k := range pts {
		pts[k] = stats.CDFPoint{X: float64(k + 1), P: float64(r.cum[ct][k]) / float64(n)}
	}
	return pts
}

// windowNanos converts the half-open [since, until) window to the nano
// bounds the row filters use; zero times mean unbounded.
func windowNanos(since, until time.Time) (int64, int64) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if !since.IsZero() {
		lo = since.UnixNano()
	}
	if !until.IsZero() {
		hi = until.UnixNano()
	}
	return lo, hi
}

// Query materializes the window [since, until) over the store's sealed
// blocks: each run of fully covered blocks with records composes as
// cum[j] − cum[i], boundary blocks batch-decode and count only their
// edge rows, and covered blocks past the last record decode whole.
// Curves and counts compose here, with no sidecar read; the slabs load
// lazily (Result.Load) for quantiles, which then answer exactly what a
// cold row scan of the same window would.
//
// blocks must be the same sealed block list the parent Index was
// validated and extended against (or a prefix-consistent extension of
// it — extra blocks past the frontier are decoded). store is the
// samples file; cls resolves probes exactly as at build time. The
// context is checked once per block, here and on the slab path.
func (v *View) Query(ctx context.Context, store io.ReaderAt, blocks []colf.BlockInfo, since, until time.Time, cls Continents) (*Result, error) {
	if cls == nil {
		return nil, fmt.Errorf("tix: nil continent resolver")
	}
	pred := &colf.Predicate{Since: since, Until: until}
	sinceN, untilN := windowNanos(since, until)
	res := &Result{ctx: ctx, sidecar: v.f, recs: v.recs, decoders: v.decoders, store: store, blocks: blocks, tbl: cls.ContinentTable()}
	st := &res.Stats
	dec := decoder(v.decoders)
	defer v.decoders.Put(dec)

	runStart := -1 // start of the current covered run of records, -1 if none
	flush := func(end int) {
		if runStart >= 0 {
			res.runs = append(res.runs, [2]int{runStart, end})
			st.Nodes += end - runStart
			runStart = -1
		}
	}
	for i, bi := range blocks {
		if err := ctx.Err(); err != nil {
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
		// record: decode it and count the rows the window selects.
		cols := colf.ColTime
		if covered {
			cols = 0
			st.FrontierBlocks++
		} else {
			st.EdgeBlocks++
		}
		t0 := time.Now()
		blk, err := dec.DecodeCols(store, bi, cols)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		st.EdgeDecode += t1.Sub(t0)
		sel := rowSel{hi: blk.Rows()}
		if !covered {
			// A monotone time column (the normal case) pins the rows to an
			// index range, which the slab path can reuse without the column.
			sel = rowSel{hi: blk.Rows(), timed: true, since: sinceN, until: untilN}
			if lo, hi, exact := blk.EdgeRows(sinceN, untilN); exact {
				sel, cols = rowSel{lo: lo, hi: hi}, 0
			}
		}
		rows, delivered := sel.count(blk)
		res.Rows += rows
		res.Delivered += delivered
		if err := foldGrid(&res.cum, res.tbl, blk, sel); err != nil {
			return nil, err
		}
		st.Fold += time.Since(t1)
		res.pieces = append(res.pieces, piece{block: i, cols: cols, sel: sel})
	}
	flush(len(blocks))

	// The folded blocks' bins are per-bin so far; sum them cumulatively,
	// then add each covered run's prefix difference.
	t0 := time.Now()
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
	st.GridCompose += time.Since(t0)
	return res, nil
}

// Load reads what the window's quantiles select from, once: every
// covered block record is read back from the sidecar (CRC re-verified —
// a corruption after Open fails here, never skews a quantile) into one
// buffer its slabs stay aliased to, and every decoded piece folds its
// selected rows' values again. The outcome, error included, is
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
	size := 0
	for _, run := range r.runs {
		for _, rec := range r.recs[run[0]:run[1]] {
			size += rec.len
		}
	}
	buf := make([]byte, size)
	t0 := time.Now()
	for _, run := range r.runs {
		for i := run[0]; i < run[1]; i++ {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			n := r.recs[i].len
			payload, err := snap.ReadRecord(r.sidecar, r.recs[i].off, buf[:n:n])
			if err != nil {
				return fmt.Errorf("tix: block record %d: %w", i, err)
			}
			buf = buf[n:]
			_, s, err := decodeBlock(payload)
			if err != nil {
				return fmt.Errorf("tix: block record %d: %w", i, err)
			}
			r.slabs = append(r.slabs, s)
			st.SlabBytes += int64(n)
		}
	}
	st.SlabRead += time.Since(t0)

	dec := decoder(r.decoders)
	defer r.decoders.Put(dec)
	for _, p := range r.pieces {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		blk, err := dec.DecodeCols(r.store, r.blocks[p.block], p.cols)
		if err != nil {
			return err
		}
		t1 := time.Now()
		st.EdgeDecode += t1.Sub(t0)
		if err := foldValues(&r.edge, r.tbl, blk, p.sel); err != nil {
			return err
		}
		st.Fold += time.Since(t1)
	}
	return nil
}

// Quantile returns one continent's q-quantile RTT over the window — the
// type-7 interpolation stats.Dist.Quantile uses, between order
// statistics orderStat selects — loading the slabs if no call has yet.
func (r *Result) Quantile(ct geo.Continent, q float64) (float64, error) {
	n := r.N(ct)
	if n == 0 {
		return 0, fmt.Errorf("tix: no data for %v", ct)
	}
	if err := r.Load(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	v, err := stats.QuantileOf(n, q, func(k int) (float64, error) { return r.orderStat(ct, k) })
	r.Stats.Select += time.Since(t0)
	return v, err
}

// orderStat returns ct's k-th smallest sample in the window. The
// composed counts bracket rank k to one bin b and say exactly how many
// samples lie below it; the bin's candidates are gathered — by two
// binary searches per covered slab and a filter over the edge values —
// and rank k − below is selected among them in linear time. A gather
// that disagrees with the counts means a slab changed after Open: that
// is an error, never an answer.
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
		for _, s := range r.slabs {
			slab := s[ct]
			n := len(slab) / 8
			from := sort.Search(n, func(j int) bool { return at(slab, j) > lo })
			to := from + sort.Search(n-from, func(j int) bool { return at(slab, from+j) > hi })
			under += uint64(from)
			for j := from; j < to; j++ {
				g.cand = append(g.cand, at(slab, j))
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
