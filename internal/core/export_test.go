package core

import "repro/internal/geo"

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
