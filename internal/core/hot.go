package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
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
	idx      *Index
	start    time.Time
	binWidth time.Duration

	suite        *Suite
	samples      uint64
	coveredBytes int64
	blocks       []colf.BlockInfo // every block folded so far, in file order
}

// hotPasses are the figures the serving layer publishes (4 to 7).
const hotPasses = PassProximity | PassMinRTT | PassFullDist | PassLastMile

// NewHotSuite builds the resident suite for a store and folds the
// complete blocks the store already holds, so Report is valid on
// return. The nearest-region buffer is sized by the samples and so
// never comes from a snapshot: the options are ignored (the parameter
// stays for callers that still pass one).
func NewHotSuite(store *results.Store, idx *Index, start time.Time, binWidth time.Duration, _ SnapshotOptions) (*HotSuite, error) {
	if store == nil || idx == nil {
		return nil, errors.New("core: nil store or index")
	}
	s, err := NewSuite(idx, start, binWidth)
	if err != nil {
		return nil, err
	}
	s.sel = hotPasses
	h := &HotSuite{idx: idx, start: start, binWidth: binWidth, suite: s, coveredBytes: colf.HeaderSize}
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() <= colf.HeaderSize {
		return h, nil
	}
	// A live store may end in a block the campaign is still writing: fold
	// the complete ones, and a later Advance takes the rest.
	blocks, stableEnd, err := colf.Locate(f, fi.Size(), colf.HeaderSize)
	if err != nil && !errors.Is(err, colf.ErrTorn) {
		return nil, fmt.Errorf("core: indexing store: %w", err)
	}
	if _, err := h.Advance(context.Background(), f, fi.Size(), blocks, stableEnd, scan.Config{}); err != nil {
		return nil, err
	}
	return h, nil
}

// Advance folds blocks — the complete blocks appended since the
// covered boundary, located by the caller (colf.Locate) against its
// long-lived data source r — into the resident state.
// stableEnd is the boundary the blocks reach; a torn tail past it waits
// for the next Advance. On error the resident state is unchanged and
// still serviceable: a failed Advance loses freshness, never
// correctness.
func (h *HotSuite) Advance(ctx context.Context, r io.ReaderAt, size int64, blocks []colf.BlockInfo, stableEnd int64, cfg scan.Config) (scan.Stats, error) {
	if len(blocks) == 0 {
		return scan.Stats{}, nil
	}
	if blocks[0].Off != h.coveredBytes {
		return scan.Stats{}, fmt.Errorf("core: delta starts at offset %d, covered boundary is %d", blocks[0].Off, h.coveredBytes)
	}
	var suites []*Suite
	cfg.NewPasses = func(worker int) ([]scan.Pass, error) {
		s, err := NewSuite(h.idx, h.start, h.binWidth)
		if err != nil {
			return nil, err
		}
		s.sel = h.suite.sel
		suites = append(suites, s)
		return s.Passes(), nil
	}
	st, err := scan.Blocks(ctx, cfg, r, size, blocks, len(h.blocks), h.coveredBytes)
	if err != nil {
		return st, err
	}
	// Receiver-first: the resident suite covers the earlier bytes.
	if err := h.suite.Merge(suites[0]); err != nil {
		return st, err
	}
	h.samples += st.Samples
	h.coveredBytes = stableEnd
	h.blocks = append(h.blocks, blocks...)
	return st, nil
}

// Report finalizes the resident state into a fresh figure report whose
// bytes match a cold scan at the same covered boundary. A later Advance
// or Report never writes to anything an earlier report holds. An empty
// suite returns ErrEmptyStore.
func (h *HotSuite) Report() (*SuiteReport, error) {
	if h.samples == 0 {
		return nil, ErrEmptyStore
	}
	return h.suite.Report()
}

// Covered reports the store prefix the resident state summarizes.
func (h *HotSuite) Covered() (bytes int64, blocks int) {
	return h.coveredBytes, len(h.blocks)
}

// Blocks returns the blocks folded so far, in file order: the block
// list of the covered prefix. Advance only appends, so a prefix of the
// slice taken with a capped length stays valid; don't mutate it.
func (h *HotSuite) Blocks() []colf.BlockInfo { return h.blocks }

// ResidentBytes reports the bytes of the NearestPass row buffer (chunks,
// best rows and row chain) and of the Figure 6/7 multisets.
func (h *HotSuite) ResidentBytes() (nearestRows, keptSets int64) {
	return h.suite.Nearest.residentBytes()
}

// Samples reports the number of samples folded into the state.
func (h *HotSuite) Samples() uint64 { return h.samples }
