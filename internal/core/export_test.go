package core

import (
	"context"
	"io"
	"time"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/scan"
)

// Hooks core_test reads the resident report through: what no report
// carries, and how much work the last update did.

// Suite returns the resident suite, so a test can ask it for what no
// report carries (NearestPass.Significance).
func (h *HotSuite) Suite() *Suite { return h.suite }

// Finalize reports every pass the suite holds, for a suite a test
// folded itself.
func (s *Suite) Finalize() (*SuiteReport, error) { return s.report(s.sel) }

// ResidentWork reports how many rows the last Figure 6 and Figure 7
// updates gathered (added plus removed) and how many buffered rows each
// read, -1 for a figure whose resident multisets were never built.
func (s *Suite) ResidentWork() (full, weeks, fullRead, weeksRead int) {
	full, weeks, fullRead, weeksRead = -1, -1, -1, -1
	if v := s.Nearest.full; v != nil {
		full, fullRead = v.gathered, v.read
	}
	if v := s.Nearest.weeks; v != nil {
		weeks, weeksRead = v.gathered, v.read
	}
	return full, weeks, fullRead, weeksRead
}

// AccessTier returns a probe's access class and its country's
// infrastructure tier, the two inputs of Figure 7's admission.
func (idx *Index) AccessTier(probeID int) (AccessClass, geo.Tier) {
	info, _ := idx.info(probeID)
	return info.access, info.tier
}

// ScanImage folds the blocks of a colf image through the whole suite at
// the given scan worker count, as ScanMemory folds a results.Memory's
// image at one, so a test can choose the image's block size.
func ScanImage(r io.ReaderAt, blocks []colf.BlockInfo, idx *Index, start time.Time, binWidth time.Duration, workers int) (*SuiteReport, error) {
	s, err := FoldImage(r, blocks, idx, start, binWidth, workers, nil, 0, false)
	if err != nil {
		return nil, err
	}
	return s.Finalize()
}

// FoldImage folds the blocks of a colf image that pred admits through
// the suite over passes at the given scan worker count, and returns the
// suite the report comes from. once folds as a one-shot fold does
// (ScanStoreSnap, ScanMemory); otherwise as a fold that may be advanced.
func FoldImage(r io.ReaderAt, blocks []colf.BlockInfo, idx *Index, start time.Time, binWidth time.Duration, workers int, pred *colf.Predicate, passes PassSet, once bool) (*Suite, error) {
	c := &covered{idx: idx, start: start, binWidth: binWidth, sel: passes, once: once}
	if _, err := c.advance(context.Background(), scan.Config{Workers: workers, Predicate: pred}, r, 0, blocks); err != nil {
		return nil, err
	}
	return c.suite, nil
}

// BufferedRows counts the rows NearestPass buffers, and its chunks whose
// columns were allocated past the rows they hold.
func (s *Suite) BufferedRows() (rows, oversized int) {
	for _, c := range s.Nearest.chunks {
		rows += len(c.rtt)
		if cap(c.probe) != len(c.probe) || cap(c.region) != len(c.region) || cap(c.rtt) != len(c.rtt) || cap(c.times) != len(c.times) {
			oversized++
		}
	}
	return rows, oversized
}
