package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/colf"
	"repro/internal/results"
	"repro/internal/scan"
)

// HotSuite is the suite held resident for query serving: the merged
// state of the four figure passes the serving layer publishes over the
// store prefix scanned so far, advanced incrementally as the campaign
// appends. Unlike ScanStore — which rescans the store on every call — a
// HotSuite pays the seed scan once and each Advance folds only the
// blocks written since the previous one, and each Report after the first
// updates only the Figure 6/7 multisets those blocks touched (see
// NearestPass), so steady-state refresh cost tracks the append rate, not
// the store size.
//
// A HotSuite is not safe for concurrent use; the serving layer advances
// it from a single refresher goroutine and publishes immutable reports.
type HotSuite struct {
	covered
	folded []colf.BlockInfo // every block folded so far, in file order
}

// hotPasses are the figures the serving layer publishes (4 to 7).
const hotPasses = PassProximity | PassMinRTT | PassFullDist | PassLastMile

// NewHotSuite builds the resident suite for a store and folds the
// complete blocks the store already holds, so Report is valid on
// return. The nearest-region buffer is sized by the samples and so
// never comes from a snapshot: the options are ignored (the parameter
// stays for callers that still pass one).
func NewHotSuite(store *results.Store, idx *Index, start time.Time, binWidth time.Duration, _ SnapshotOptions) (*HotSuite, error) {
	f, size, err := openSamples(store, idx)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := NewSuite(idx, start, binWidth)
	if err != nil {
		return nil, err
	}
	s.sel = hotPasses
	h := &HotSuite{covered: covered{idx: idx, start: start, binWidth: binWidth, sel: hotPasses, suite: s}}
	if size <= colf.HeaderSize {
		return h, nil
	}
	// A live store may end in a block the campaign is still writing: fold
	// the complete ones, and a later Advance takes the rest.
	blocks, _, err := colf.Locate(f, size, colf.HeaderSize)
	if err != nil && !errors.Is(err, colf.ErrTorn) {
		return nil, fmt.Errorf("core: indexing store: %w", err)
	}
	if _, err := h.Advance(context.Background(), f, size, blocks, scan.Config{}); err != nil {
		return nil, err
	}
	return h, nil
}

// Advance folds blocks — the complete blocks appended since the
// covered boundary, located by the caller (colf.Locate) against its
// long-lived data source r — into the resident state; a torn tail past
// them waits for the next Advance. On error the resident state is
// unchanged and still serviceable: a failed Advance loses freshness,
// never correctness.
func (h *HotSuite) Advance(ctx context.Context, r io.ReaderAt, size int64, blocks []colf.BlockInfo, cfg scan.Config) (scan.Stats, error) {
	if len(blocks) == 0 {
		return scan.Stats{}, nil
	}
	if covered, _ := h.Covered(); blocks[0].Off != covered {
		return scan.Stats{}, fmt.Errorf("core: delta starts at offset %d, covered boundary is %d", blocks[0].Off, covered)
	}
	st, err := h.advance(ctx, cfg, r, size, blocks)
	if err == nil {
		h.folded = append(h.folded, blocks...)
	}
	return st, err
}

// Report finalizes the resident state into a fresh figure report whose
// bytes match a cold scan at the same covered boundary. A later Advance
// or Report never writes to anything an earlier report holds. An empty
// suite returns ErrEmptyStore.
func (h *HotSuite) Report() (*SuiteReport, error) {
	if h.samples == 0 {
		return nil, ErrEmptyStore
	}
	return h.report(h.sel)
}

// Covered reports the store prefix the resident state summarizes: the
// header alone until a block is folded.
func (h *HotSuite) Covered() (bytes int64, blocks int) {
	return max(h.bytes, colf.HeaderSize), h.blocks
}

// Blocks returns the blocks folded so far, in file order: the block
// list of the covered prefix. Advance only appends, so a prefix of the
// slice taken with a capped length stays valid; don't mutate it.
func (h *HotSuite) Blocks() []colf.BlockInfo { return h.folded }

// ResidentBytes reports the bytes of the NearestPass row buffer (chunks,
// best rows and row chain) and of the Figure 6/7 multisets.
func (h *HotSuite) ResidentBytes() (nearestRows, keptSets int64) {
	return h.suite.Nearest.residentBytes()
}

// Samples reports the number of samples folded into the state.
func (h *HotSuite) Samples() uint64 { return h.samples }
