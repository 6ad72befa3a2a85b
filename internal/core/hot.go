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
// pass state over the store prefix scanned so far, advanced
// incrementally as the campaign appends. Unlike ScanStoreSnap — which
// reopens the store, replays the snapshot, and rescans the suffix on
// every call — a HotSuite pays the seed cost once and each Advance
// folds only the blocks written since the previous one, so steady-state
// refresh cost tracks the append rate, not the store size.
//
// A HotSuite is not safe for concurrent use; the serving layer advances
// it from a single refresher goroutine and publishes immutable reports.
type HotSuite struct {
	idx      *Index
	start    time.Time
	binWidth time.Duration

	suite         *Suite
	samples       uint64
	coveredBytes  int64
	coveredBlocks int
}

// NewHotSuite builds the resident suite for a store, seeded from the
// snapshot named by so.Path when it validates (the same prefix-proof
// rules as ScanStoreSnap; any mismatch just seeds empty — never wrong
// state).
func NewHotSuite(store *results.Store, idx *Index, start time.Time, binWidth time.Duration, so SnapshotOptions) (*HotSuite, error) {
	if store == nil || idx == nil {
		return nil, errors.New("core: nil store or index")
	}
	h := &HotSuite{idx: idx, start: start, binWidth: binWidth, coveredBytes: colf.HeaderSize}
	if so.Path != "" {
		so.Passes = 0 // the resident suite serves every figure
		prefix, samples, resume := loadSnapshot(so.Path, store, idx, start, binWidth, so)
		if prefix != nil {
			h.suite, h.samples = prefix, samples
			h.coveredBytes, h.coveredBlocks = resume.Bytes, resume.Blocks
			so.Metrics.Hit(resume.Blocks, resume.Bytes)
		}
	}
	if h.suite == nil {
		s, err := NewSuite(idx, start, binWidth)
		if err != nil {
			return nil, err
		}
		h.suite = s
	}
	return h, nil
}

// Advance folds blocks — the complete blocks appended since the
// covered boundary, located by the caller (colf.DeltaBlocksAvailable)
// against its long-lived data source r — into the resident state.
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
		suites = append(suites, s)
		return s.Passes(), nil
	}
	st, err := scan.Blocks(ctx, cfg, r, size, blocks, h.coveredBlocks, h.coveredBytes)
	if err != nil {
		return st, err
	}
	// Receiver-first: the resident suite covers the earlier bytes.
	if err := h.suite.Merge(suites[0]); err != nil {
		return st, err
	}
	h.samples += st.Samples
	h.coveredBytes = stableEnd
	h.coveredBlocks += len(blocks)
	return st, nil
}

// Report finalizes the resident state into a fresh figure report.
// Calling it between Advances is safe: report-time queries sort
// distribution buffers in place, and every later merge re-establishes
// the sequential file-order fold, so the bytes match a cold scan at the
// same covered boundary. An empty suite returns ErrEmptyStore.
func (h *HotSuite) Report() (*SuiteReport, error) {
	if h.samples == 0 {
		return nil, ErrEmptyStore
	}
	return h.suite.Report()
}

// Covered reports the store prefix the resident state summarizes.
func (h *HotSuite) Covered() (bytes int64, blocks int) {
	return h.coveredBytes, h.coveredBlocks
}

// Samples reports the number of samples folded into the state.
func (h *HotSuite) Samples() uint64 { return h.samples }
