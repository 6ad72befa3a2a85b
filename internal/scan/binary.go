package scan

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/colf"
	"repro/internal/obs"
	"repro/internal/results"
)

// Blocks scans an already-located colf block list against an open data
// source r (size bytes), for callers that hold a long-lived handle and
// locate blocks themselves. It skips blocks whose zone maps cannot
// match cfg.Predicate, cuts the rest into contiguous groups, folds each
// group on its own worker and merges the per-worker partials in file
// order. prefixBlocks and prefixBytes name what an earlier fold covered
// before blocks[0]; they only feed the stats. cfg.Path is ignored.
func Blocks(ctx context.Context, cfg Config, r io.ReaderAt, size int64, blocks []colf.BlockInfo, prefixBlocks int, prefixBytes int64) (Stats, error) {
	if cfg.NewPasses == nil {
		return Stats{}, fmt.Errorf("scan: missing NewPasses")
	}
	span := obs.From(ctx).Child("scan")
	defer span.End()
	if cfg.Log == nil {
		cfg.Log = obs.Discard
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Zone-map pushdown: a block whose ranges cannot satisfy the
	// predicate is dropped here, before any worker touches its payload.
	// Kept blocks still carry non-matching rows; foldGroup filters those
	// out exactly.
	kept := blocks
	if !cfg.Predicate.Empty() {
		kept = make([]colf.BlockInfo, 0, len(blocks))
		for _, bi := range blocks {
			if cfg.Predicate.MatchZone(bi.Zone) {
				kept = append(kept, bi)
			}
		}
	}
	dataEnd := prefixBytes
	if len(blocks) > 0 {
		last := blocks[len(blocks)-1]
		dataEnd = last.Off + last.Len
	} else if dataEnd == 0 && size > 0 {
		dataEnd = colf.HeaderSize // headered but empty store
	}
	st := Stats{
		Bytes:         size,
		BlocksTotal:   prefixBlocks + len(blocks),
		BlocksSkipped: len(blocks) - len(kept),
		PrefixBlocks:  prefixBlocks,
		PrefixBytes:   prefixBytes,
		DataEnd:       dataEnd,
	}

	groups := groupBlocks(kept, workers)
	if len(groups) == 0 {
		// Nothing to decode (empty dataset, or every block skipped):
		// build the worker-0 passes so the caller reports (typically an
		// empty-dataset error) from a consistent state.
		if _, err := cfg.NewPasses(0); err != nil {
			return Stats{}, err
		}
		finish(&st, span, cfg)
		return st, nil
	}

	passes := make([][]Pass, len(groups))
	for w := range groups {
		ps, err := cfg.NewPasses(w)
		if err != nil {
			return Stats{}, err
		}
		if w > 0 && len(ps) != len(passes[0]) {
			return Stats{}, fmt.Errorf("scan: worker %d built %d passes, worker 0 built %d", w, len(ps), len(passes[0]))
		}
		passes[w] = ps
	}

	start := time.Now()
	scanCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg   sync.WaitGroup
		errs = make([]error, len(groups))
		res  = make([]groupStats, len(groups))
		busy = make([]time.Duration, len(groups))
	)
	for w, group := range groups {
		wg.Add(1)
		go func(w int, group []colf.BlockInfo) {
			defer wg.Done()
			t0 := time.Now()
			res[w], errs[w] = foldGroup(scanCtx, r, group, cfg.Predicate, passes[w])
			busy[w] = time.Since(t0)
			if errs[w] != nil {
				cancel() // fail fast: stop the other groups
			}
		}(w, group)
	}
	wg.Wait()

	st.Workers = len(groups)
	st.Busy = busy
	for w := range groups {
		st.Samples += res[w].samples
		st.RowsScanned += res[w].rows
		st.BytesDecoded += res[w].decoded
		st.BlocksRead += res[w].read
	}
	// First error in group (= file) order, so the reported failure is
	// deterministic even when several groups fail.
	for w, err := range errs {
		if err != nil {
			st.Duration = time.Since(start)
			return st, fmt.Errorf("scan: block group %d (offset %d): %w", w, groups[w][0].Off, err)
		}
	}

	// Merge partials into the worker-0 passes in group order.
	for w := 1; w < len(groups); w++ {
		for i, p := range passes[0] {
			if err := p.Merge(passes[w][i]); err != nil {
				st.Duration = time.Since(start)
				return st, fmt.Errorf("scan: merging block group %d pass %d: %w", w, i, err)
			}
		}
	}
	st.Duration = time.Since(start)
	finish(&st, span, cfg)
	return st, nil
}

// finish records the span attributes, metrics and completion event of
// a successful scan.
func finish(st *Stats, span *obs.Span, cfg Config) {
	span.SetAttr("workers", st.Workers)
	span.SetAttr("samples", st.Samples)
	span.SetAttr("bytes", st.Bytes)
	span.SetAttr("blocks_total", st.BlocksTotal)
	span.SetAttr("blocks_read", st.BlocksRead)
	span.SetAttr("blocks_skipped", st.BlocksSkipped)
	span.SetAttr("prefix_blocks", st.PrefixBlocks)
	span.SetAttr("bytes_decoded", st.BytesDecoded)
	span.SetAttr("rows_scanned", st.RowsScanned)
	span.SetAttr("samples_per_sec", st.SamplesPerSec())
	cfg.Metrics.observe(*st)
	cfg.Log.Debug("scan complete",
		"workers", st.Workers, "samples", st.Samples,
		"blocks_read", st.BlocksRead, "blocks_skipped", st.BlocksSkipped,
		"blocks_total", st.BlocksTotal, "duration_ms", st.Duration.Milliseconds())
}

// groupBlocks cuts the kept blocks into at most n contiguous groups of
// roughly equal encoded size, in file order. Contiguity is what makes
// the merge deterministic: concatenating the groups reconstructs the
// block sequence a sequential reader would decode.
func groupBlocks(blocks []colf.BlockInfo, n int) [][]colf.BlockInfo {
	if len(blocks) == 0 {
		return nil
	}
	n = max(n, 1)
	var total int64
	for _, b := range blocks {
		total += b.Len
	}
	groups := make([][]colf.BlockInfo, 0, n)
	start, startByte := 0, int64(0)
	covered := int64(0)
	for i, b := range blocks {
		covered += b.Len
		// Cut when this group reaches its proportional share of the
		// remaining bytes, always leaving at least one block per
		// remaining group.
		remainingGroups := n - len(groups)
		if remainingGroups <= 1 {
			continue
		}
		target := startByte + (total-startByte)/int64(remainingGroups)
		if covered >= target && len(blocks)-i-1 >= remainingGroups-1 {
			groups = append(groups, blocks[start:i+1])
			start, startByte = i+1, covered
		}
	}
	if start < len(blocks) {
		groups = append(groups, blocks[start:])
	}
	return groups
}

// groupStats is one worker's accounting: samples observed, rows
// decoded (before row filtering), payload bytes decoded and blocks
// decoded.
type groupStats struct {
	samples uint64
	rows    uint64
	decoded int64
	read    int
}

// foldGroup decodes one contiguous block group and feeds every
// predicate-matching row to ps. Every block is decoded from its
// CRC-checked bytes; a block the predicate covers only partly is then
// compacted to its matching rows, a block whose footer zone does not
// prove every row valid is validated row by row, and the passes see
// the column arrays through ObserveBlock.
func foldGroup(ctx context.Context, r io.ReaderAt, group []colf.BlockInfo, pred *colf.Predicate, ps []Pass) (gs groupStats, err error) {
	dec := colf.NewBlockDecoder()
	cols := colf.ColumnSet(0)
	for _, p := range ps {
		cols |= p.Columns()
	}

	for _, bi := range group {
		if err := ctx.Err(); err != nil {
			return gs, err
		}
		covered := pred.Empty() || pred.CoversZone(bi.Zone)
		want := cols
		if !covered {
			want = colf.ColAll // compact copies every column
		}
		blk, err := dec.DecodeCols(r, bi, want)
		if err != nil {
			return gs, err
		}
		gs.read++
		gs.decoded += bi.Len
		gs.rows += uint64(blk.Rows())

		// blk.Zone is the CRC-verified footer zone, not the (unchecked)
		// index copy in bi.Zone — the validity proof's trust anchor.
		if !blockRowsValid(blk) {
			// Rare: some row would fail validation. Decode what Validate
			// reads and name the first bad row the predicate admits,
			// before any pass sees the block.
			if want != colf.ColAll {
				if blk, err = dec.DecodeCols(r, bi, colf.ColAll); err != nil {
					return gs, err
				}
			}
			if err := validateRows(blk, bi.Off, pred); err != nil {
				return gs, err
			}
		}
		if !covered {
			compact(blk, pred)
		}
		for _, p := range ps {
			if err := p.ObserveBlock(blk); err != nil {
				return gs, err
			}
		}
		gs.samples += uint64(blk.Rows())
	}
	return gs, nil
}

// validateRows runs results.Sample.Validate over the rows of blk —
// decoded with every column — that pred admits.
func validateRows(blk *colf.Block, off int64, pred *colf.Predicate) error {
	for i, t := range blk.TimeNano {
		if !pred.MatchRow(t) {
			continue
		}
		if err := results.FromRow(blk.Row(i)).Validate(); err != nil {
			return fmt.Errorf("block at offset %d row %d: %w", off, i, err)
		}
	}
	return nil
}

// compact filters blk — decoded with every column — in place to the
// rows pred.MatchRow admits, keeping row order. The dictionary is
// untouched: surviving region codes still index it.
func compact(blk *colf.Block, pred *colf.Predicate) {
	n := 0
	for i, t := range blk.TimeNano {
		if !pred.MatchRow(t) {
			continue
		}
		blk.Probe[n] = blk.Probe[i]
		blk.TimeNano[n] = t
		blk.Region[n] = blk.Region[i]
		blk.RegionID[n] = blk.RegionID[i]
		blk.RTT[n] = blk.RTT[i]
		blk.Lost[n] = blk.Lost[i]
		n++
	}
	blk.Probe, blk.TimeNano, blk.Region = blk.Probe[:n], blk.TimeNano[:n], blk.Region[:n]
	blk.RegionID, blk.RTT, blk.Lost = blk.RegionID[:n], blk.RTT[:n], blk.Lost[:n]
}

// blockRowsValid reports whether every row of the block provably
// passes results.Sample.Validate, so the scan can skip per-row
// validation. It reads only the CRC-verified footer zone: MinProbe > 0
// covers the probe check, a non-empty MinRegion rules out empty
// regions (the lexicographic minimum), and MinRTT > 0 covers every
// delivered row's RTT check (lost rows validate regardless of RTT).
// The zero-Time check needs no proof at all — time.Unix(0, n) is
// non-zero for every int64 n. It errs toward false (e.g. a NaN MinRTT
// fails the > 0 test and falls back to the row sweep, which accepts
// NaN RTTs just as Validate does) — a false negative only costs
// speed, never correctness.
func blockRowsValid(blk *colf.Block) bool {
	z := &blk.Zone
	return z.MinProbe > 0 && z.MinRegion != "" && (z.Delivered == 0 || z.MinRTT > 0)
}
