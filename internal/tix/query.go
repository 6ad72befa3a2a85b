package tix

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"time"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/stats"
)

// View is an immutable query handle over the nodes an Index had stored
// when it was taken. Views are safe for concurrent use and for use
// concurrent with a later Extend on the parent Index.
type View struct {
	f        *os.File
	nodes    map[nodeKey]nodeRef
	frontier int
	blocks   *blockState
}

// QueryStats reports how a window was materialized — the observable
// difference between the index path and a cold scan — and where its
// time went. The slab-path fields (SlabRead, SlabBytes, Select) stay
// zero until the Result is asked for distributions or quantiles.
type QueryStats struct {
	// Nodes is how many pre-merged segment nodes composed the window.
	Nodes int
	// NodeBlocks is how many sealed blocks those nodes covered — rows
	// the query never decoded.
	NodeBlocks int
	// EdgeBlocks is how many partially covered blocks were decoded and
	// row-filtered at the window boundaries.
	EdgeBlocks int
	// StrayBlocks is how many fully covered blocks below the frontier
	// had no stored node aligned with them (the odd leaves of the
	// decomposition).
	StrayBlocks int
	// FrontierBlocks is how many fully covered blocks lay past the built
	// frontier.
	FrontierBlocks int
	// MemoBlocks is how many of the stray and frontier blocks took their
	// grid from the leaf memo instead of a decode.
	MemoBlocks int
	// SkippedBlocks is how many blocks the window excluded outright.
	SkippedBlocks int

	// GridCompose is the time spent adding resident grids (nodes and
	// memoized leaves) into the window's curves.
	GridCompose time.Duration
	// SlabRead is the time spent reading node payloads back from the
	// sidecar: pread, CRC check and decode.
	SlabRead time.Duration
	// EdgeDecode is the time spent decoding store blocks — edge, stray
	// and frontier alike.
	EdgeDecode time.Duration
	// Fold is the time spent folding decoded rows: the count-only kernel
	// on the curve path, distribution appends on the slab path.
	Fold time.Duration
	// Select is the time spent in order statistics over the composed
	// slabs (Result.Quantile).
	Select time.Duration
	// SlabBytes is how many sidecar payload bytes the window read.
	SlabBytes int64
}

// DecodedBlocks is the total number of blocks the query had to decode.
func (q QueryStats) DecodedBlocks() int {
	return q.EdgeBlocks + q.StrayBlocks + q.FrontierBlocks - q.MemoBlocks
}

// piece is one step of a window's composition plan, kept so the
// distribution slabs can load after the curves were answered: a stored
// node, or the selected rows of one block (which the slab path decodes
// again — cheaper than every curve query keeping its edge blocks'
// column buffers alive in case a quantile follows).
type piece struct {
	slabOff int64 // node: record offset in the sidecar
	slabLen int   // node: framed record size; 0 for a block
	block   int
	edge    bool           // block: fold only sel's rows, not all of them
	cols    colf.ColumnSet // edge: the columns sel needs
	sel     rowSel
}

// Result is a materialized window: the row totals [since, until)
// covers, its per-continent sample counts and CDF curves — composed
// eagerly, from grids alone — and, on demand, the per-continent
// delivered-RTT distributions behind quantiles.
type Result struct {
	Rows      uint64 // rows inside the window
	Delivered uint64 // delivered rows inside the window
	Stats     QueryStats

	n      [numContinents]uint64
	counts [numContinents][curveBins]uint64

	// The slab path's inputs: Dists replays plan against the same
	// sidecar, store and resolver, under the context Query ran with.
	ctx     context.Context
	sidecar io.ReaderAt
	bstate  *blockState
	store   io.ReaderAt
	blocks  []colf.BlockInfo
	tbl     []geo.Continent
	plan    []piece

	loaded  bool
	dists   map[geo.Continent]*stats.Dist
	distErr error
}

// add composes one piece's grid into the window.
func (r *Result) add(g *grid) {
	r.Rows += g.rows
	r.Delivered += g.delivered
	for ct, b := range g.bins {
		r.n[ct] += g.n[ct]
		if b == nil {
			continue
		}
		c := &r.counts[ct]
		for k, x := range b {
			c[k] += uint64(x)
		}
	}
}

// Continents returns the continents with samples in the window, in
// canonical order.
func (r *Result) Continents() []geo.Continent {
	var out []geo.Continent
	for _, ct := range geo.Continents() {
		if r.n[ct] > 0 {
			out = append(out, ct)
		}
	}
	return out
}

// N returns one continent's sample count: the delivered rows in the
// window whose probes the index resolves there.
func (r *Result) N(ct geo.Continent) int { return int(r.n[ct]) }

// Samples returns the total sample count across continents.
func (r *Result) Samples() int {
	n := 0
	for _, x := range r.n {
		n += int(x)
	}
	return n
}

// Curve returns one continent's CDF curve over the fixed figure grid
// (x = 1..400 ms, core.DefaultGrid), composed purely from the node
// pre-aggregates and edge folds — no pass over the sample buffers.
// Every P value equals float64(samples <= x) / float64(N), the exact
// division Dist.CDF performs, so a figure rendered from these points is
// bit-identical to one swept from the window's distributions. A
// continent with no samples has no curve.
func (r *Result) Curve(ct geo.Continent) []stats.CDFPoint {
	n := r.n[ct]
	if n == 0 {
		return nil
	}
	pts := make([]stats.CDFPoint, curveBins)
	var cum uint64
	for k, x := range r.counts[ct] {
		cum += x
		pts[k] = stats.CDFPoint{X: float64(k + 1), P: float64(cum) / float64(n)}
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
// blocks: fully covered block runs compose from O(log n) pre-merged
// nodes, boundary blocks batch-decode and count only their edge rows,
// and anything the index has not reached yet falls back to a direct
// decode (memoized, so it happens once per block). Curves and counts
// compose here, from resident grids, with no sidecar read; the
// distributions load lazily (Result.Dists) and then hold exactly the
// sample multiset a cold row scan of the same window would accumulate,
// so every rank query downstream answers identically.
//
// blocks must be the same sealed block list the parent Index was
// validated and extended against (or a prefix-consistent extension of
// it — extra blocks past the frontier are served by fallback decodes).
// store is the samples file; cls resolves probes exactly as at build
// time. The context is checked once per composed piece, here and on
// the lazy slab path.
func (v *View) Query(ctx context.Context, store io.ReaderAt, blocks []colf.BlockInfo, since, until time.Time, cls Continents) (*Result, error) {
	if cls == nil {
		return nil, fmt.Errorf("tix: nil continent resolver")
	}
	pred := &colf.Predicate{Since: since, Until: until}
	sinceN, untilN := windowNanos(since, until)
	res := &Result{ctx: ctx, sidecar: v.f, bstate: v.blocks, store: store, blocks: blocks, tbl: cls.ContinentTable()}
	st := &res.Stats
	dec := v.blocks.decoder()
	defer v.blocks.release(dec)

	// leaf composes one fully covered block with no usable node: from
	// the memo when some query or Extend decoded it before, else by a
	// decode and count-only fold that fills the memo.
	leaf := func(i int) error {
		bi := blocks[i]
		g := v.blocks.leaf(bi)
		if g != nil {
			st.MemoBlocks++
		} else {
			t0 := time.Now()
			blk, err := dec.DecodeCols(store, bi, 0)
			if err != nil {
				return err
			}
			t1 := time.Now()
			st.EdgeDecode += t1.Sub(t0)
			// blk.Zone is the CRC-verified footer zone — the trusted totals.
			g = &grid{rows: uint64(blk.Zone.Rows), delivered: uint64(blk.Zone.Delivered)}
			if err := foldGrid(g, res.tbl, blk, rowSel{hi: blk.Rows()}); err != nil {
				return err
			}
			v.blocks.putLeaf(bi, g)
			st.Fold += time.Since(t1)
		}
		t0 := time.Now()
		res.add(g)
		st.GridCompose += time.Since(t0)
		res.plan = append(res.plan, piece{block: i})
		return nil
	}

	// flushRun decomposes a run of fully covered blocks [lo, hi) into
	// the largest aligned stored nodes, leaving the stray leaves of the
	// dyadic decomposition at the ends.
	flushRun := func(lo, hi int) error {
		for lo < hi {
			if err := ctx.Err(); err != nil {
				return err
			}
			used := false
			for level := bits.Len(uint(hi-lo)) - 1; level >= 1; level-- {
				span := 1 << level
				if lo%span != 0 {
					continue
				}
				ref, ok := v.nodes[nodeKey{level, lo}]
				if !ok {
					continue
				}
				t0 := time.Now()
				res.add(ref.grid)
				st.GridCompose += time.Since(t0)
				res.plan = append(res.plan, piece{slabOff: ref.recOff, slabLen: ref.recLen})
				st.Nodes++
				st.NodeBlocks += span
				lo += span
				used = true
				break
			}
			if used {
				continue
			}
			if lo < v.frontier {
				st.StrayBlocks++
			} else {
				st.FrontierBlocks++
			}
			if err := leaf(lo); err != nil {
				return err
			}
			lo++
		}
		return nil
	}

	runStart := -1 // start of the current fully covered run, -1 if none
	for i, bi := range blocks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		match := pred.MatchZone(bi.Zone)
		if match && pred.CoversZone(bi.Zone) {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if runStart >= 0 {
			if err := flushRun(runStart, i); err != nil {
				return nil, err
			}
			runStart = -1
		}
		if !match {
			st.SkippedBlocks++
			continue
		}
		// Edge block: the window cuts through it. Decode with the time
		// column and count only the in-window rows.
		st.EdgeBlocks++
		t0 := time.Now()
		blk, err := dec.DecodeCols(store, bi, colf.ColTime)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		st.EdgeDecode += t1.Sub(t0)
		// A monotone time column (the normal case) pins the rows to an
		// index range, which the slab path can reuse without the column.
		sel, cols := rowSel{hi: blk.Rows(), timed: true, since: sinceN, until: untilN}, colf.ColTime
		if lo, hi, exact := blk.EdgeRows(sinceN, untilN); exact {
			sel, cols = rowSel{lo: lo, hi: hi}, 0
		}
		g := &grid{}
		g.rows, g.delivered = sel.count(blk)
		if err := foldGrid(g, res.tbl, blk, sel); err != nil {
			return nil, err
		}
		res.add(g)
		st.Fold += time.Since(t1)
		res.plan = append(res.plan, piece{block: i, edge: true, cols: cols, sel: sel})
	}
	if runStart >= 0 {
		if err := flushRun(runStart, len(blocks)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Dists returns the window's per-continent distributions, loading them
// on first use: every composed node's payload is read back from the
// sidecar (CRC re-verified — a corruption after Open fails here, never
// skews a quantile) into one buffer the serialized slabs stay aliased
// to, and the plan's blocks fold their selected rows. The composed
// distributions answer quantiles in place (stats' multi-span order
// statistic); nothing merges. The outcome, error included, is
// remembered.
func (r *Result) Dists() (map[geo.Continent]*stats.Dist, error) {
	if !r.loaded {
		r.loaded = true
		r.dists, r.distErr = r.loadDists()
	}
	return r.dists, r.distErr
}

func (r *Result) loadDists() (map[geo.Continent]*stats.Dist, error) {
	st := &r.Stats
	slab := 0
	for _, p := range r.plan {
		slab += p.slabLen
	}
	buf := make([]byte, slab)
	dec := r.bstate.decoder()
	defer r.bstate.release(dec)

	// Pieces arrive in block order; combining is a concatenation of runs
	// (stats.CombineSorted), and the final multiset is independent of how
	// the window was pieced together.
	var runs [numContinents][]*stats.Dist
	for _, p := range r.plan {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		var dists [numContinents]*stats.Dist
		t0 := time.Now()
		if n := p.slabLen; n > 0 {
			ns, err := readNodeState(r.sidecar, p.slabOff, buf[:n:n])
			if err != nil {
				return nil, err
			}
			buf = buf[n:]
			dists = ns.dists
			st.SlabBytes += int64(n)
			st.SlabRead += time.Since(t0)
		} else {
			blk, err := dec.DecodeCols(r.store, r.blocks[p.block], p.cols)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			st.EdgeDecode += t1.Sub(t0)
			sel := rowSel{hi: blk.Rows()}
			if p.edge {
				sel = p.sel
			}
			if err := foldDists(&dists, nil, r.tbl, blk, sel); err != nil {
				return nil, err
			}
			st.Fold += time.Since(t1)
		}
		for ct, d := range dists {
			if d != nil {
				runs[ct] = append(runs[ct], d)
			}
		}
	}
	out := make(map[geo.Continent]*stats.Dist)
	for ct, ds := range runs {
		if len(ds) == 0 {
			continue
		}
		d, err := stats.CombineSorted(ds)
		if err != nil {
			return nil, err
		}
		out[geo.Continent(ct)] = d
	}
	return out, nil
}

// Quantile returns one continent's q-quantile RTT over the window,
// loading the distributions if no call has yet. The composed curve
// counts bracket every rank to one grid bin before the slabs are
// searched (stats.QuantileBracketed), so the selection starts from a
// 1 ms value range and the edge rows are filtered, not sorted.
func (r *Result) Quantile(ct geo.Continent, q float64) (float64, error) {
	dists, err := r.Dists()
	if err != nil {
		return 0, err
	}
	d := dists[ct]
	if d == nil {
		return 0, fmt.Errorf("tix: no data for %v", ct)
	}
	t0 := time.Now()
	v, err := d.QuantileBracketed(q, func(k int) (lo, hi float64) {
		// Bin b holds the samples in (b, b+1]; bin 0 also everything
		// below, and samples past the grid sit in no bin.
		var cum uint64
		for b, x := range r.counts[ct] {
			if cum += x; uint64(k) < cum {
				if b == 0 {
					return math.Inf(-1), 1
				}
				return float64(b), float64(b + 1)
			}
		}
		return curveBins, math.Inf(1)
	})
	r.Stats.Select += time.Since(t0)
	return v, err
}
