package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/colf"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
)

// PassSet names a subset of the suite's five passes, one bit each. The
// zero value means all five.
type PassSet uint8

// The suite's passes, in Passes() order.
const (
	PassProximity PassSet = 1 << iota // Figure 4
	PassMinRTT                        // Figure 5
	PassFullDist                      // Figure 6
	PassLastMile                      // Figures 7 and 8 (and NearestPass.Significance)
	PassProvider                      // §4.1's per-provider table (NearestPass.Providers)

	allPasses = PassProvider<<1 - 1
)

var passNames = [...]string{"proximity", "min-rtt", "full-dist", "last-mile", "provider"}

// has reports whether the set selects pass p.
func (ps PassSet) has(p PassSet) bool { return ps == 0 || ps&p != 0 }

// partial reports whether the set leaves any pass out.
func (ps PassSet) partial() bool { return ps != 0 && ps&allPasses != allPasses }

// holds reports whether the suite feeds every pass in ps.
func (s *Suite) holds(ps PassSet) bool { return s.sel == 0 || s.sel&ps == ps }

// String lists the selected passes, "all" for the whole suite.
func (ps PassSet) String() string {
	if !ps.partial() {
		return "all"
	}
	var names []string
	for i, name := range passNames {
		if ps&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, ",")
}

// Suite bundles one instance of every analysis pass so a single scan of
// the dataset can feed all five reports. Each worker of a parallel scan
// owns its own Suite; after the scan the merged state lives in the first
// worker's passes.
type Suite struct {
	Proximity *ProximityPass
	MinRTT    *MinRTTPass
	Nearest   *NearestPass // Figures 6, 7, 8, the KS test and the §4.1 table

	// sel is zero except in a pass-selective scan, where only the
	// selected passes observe, merge and report. A suite that leaves a
	// snapshot pass out refuses to encode.
	sel PassSet
}

// NewSuite builds a fresh pass set. start and binWidth parameterize the
// Figure 7 time series; a bad width fails here, before any scanning.
func NewSuite(idx *Index, start time.Time, binWidth time.Duration) (*Suite, error) {
	if idx == nil {
		return nil, errors.New("analysis: nil index")
	}
	if binWidth <= 0 {
		return nil, fmt.Errorf("stats: non-positive bin width %v", binWidth)
	}
	return &Suite{
		Proximity: NewProximityPass(idx),
		MinRTT:    NewMinRTTPass(idx),
		Nearest:   NewNearestPass(idx, start, binWidth),
	}, nil
}

// nearestPasses are the selectable passes the one NearestPass serves.
const nearestPasses = PassFullDist | PassLastMile | PassProvider

// Passes returns the suite's passes in a fixed order, matching across
// workers so the scanner can merge them pairwise.
func (s *Suite) Passes() []Pass {
	all := [...]struct {
		pass Pass
		bits PassSet
	}{
		{s.Proximity, PassProximity}, {s.MinRTT, PassMinRTT}, {s.Nearest, nearestPasses},
	}
	passes := make([]Pass, 0, len(all))
	for _, p := range all {
		if s.sel == 0 || s.sel&p.bits != 0 {
			passes = append(passes, p.pass)
		}
	}
	return passes
}

// SuiteReport holds every figure's report, produced from one scan. A
// pass-selective scan (SnapshotOptions.Passes) leaves the reports of
// the passes it did not select nil.
type SuiteReport struct {
	// Samples counts the samples the reports were computed from: the
	// snapshot's covered prefix plus whatever the scan decoded.
	Samples uint64
	// Passes is the pass set the scan fed, zero for all five.
	Passes PassSet

	Proximity *ProximityReport
	MinRTT    *CDFReport
	FullDist  *CDFReport
	LastMile  *LastMileReport
	Provider  *ProviderReport
}

// report finalizes the passes want selects; the suite must hold them.
func (s *Suite) report(want PassSet) (*SuiteReport, error) {
	rep := &SuiteReport{Passes: s.sel}
	var err error
	if want.has(PassProximity) {
		if rep.Proximity, err = s.Proximity.Report(); err != nil {
			return nil, err
		}
	}
	if want.has(PassMinRTT) {
		if rep.MinRTT, err = s.MinRTT.Report(); err != nil {
			return nil, err
		}
	}
	if want.has(PassFullDist) {
		if rep.FullDist, err = s.Nearest.FullDist(); err != nil {
			return nil, err
		}
	}
	if want.has(PassLastMile) {
		if rep.LastMile, err = s.Nearest.LastMile(); err != nil {
			return nil, err
		}
	}
	if want.has(PassProvider) {
		if rep.Provider, err = s.Nearest.Providers(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// covered is a suite over sel folded across a block-aligned prefix of a
// colf stream, with the samples, bytes and blocks that prefix holds.
// Every analysis fold advances one: a cold store scan, UpdateSnapshot
// and ScanMemory start from an empty one, a Figure 4/5 resume from the
// one samples.snap decodes to, and HotSuite keeps one resident. So
// every report counts the samples it came from.
type covered struct {
	idx      *Index
	start    time.Time
	binWidth time.Duration
	sel      PassSet

	suite   *Suite // nil until the first fold adopts worker 0's
	samples uint64
	bytes   int64 // where the prefix ends; 0 before the first fold
	blocks  int
	// fromSnap marks a suite decoded from samples.snap: merging a fold
	// onto it opens a snap.merge span.
	fromSnap bool
}

// advance folds blocks — the complete blocks of r (size bytes) that
// follow the covered prefix — with one suite per scan worker, then
// adopts worker 0's suite, which holds the merged delta, when c has
// none, and merges it onto c's otherwise. On a scan error c is
// unchanged.
func (c *covered) advance(ctx context.Context, cfg scan.Config, r io.ReaderAt, size int64, blocks []colf.BlockInfo) (scan.Stats, error) {
	var delta *Suite
	cfg.NewPasses = func(worker int) ([]scan.Pass, error) {
		s, err := NewSuite(c.idx, c.start, c.binWidth)
		if err != nil {
			return nil, err
		}
		s.sel = c.sel
		if worker == 0 {
			delta = s
		}
		return s.Passes(), nil
	}
	st, err := scan.Blocks(ctx, cfg, r, size, blocks, c.blocks, c.bytes)
	if err != nil {
		return st, err
	}
	if c.suite == nil {
		c.suite = delta
	} else {
		var span *obs.Span
		if c.fromSnap {
			span = obs.From(ctx).Child("snap.merge")
		}
		// Receiver-first: the prefix covers the earlier bytes.
		err = c.suite.Merge(delta)
		span.End()
		if err != nil {
			return st, err
		}
	}
	c.samples += st.Samples
	c.bytes, c.blocks = st.DataEnd, st.BlocksTotal
	return st, nil
}

// report finalizes the passes want selects into a report of the
// covered samples.
func (c *covered) report(want PassSet) (*SuiteReport, error) {
	rep, err := c.suite.report(want)
	if err != nil {
		return nil, err
	}
	rep.Samples = c.samples
	return rep, nil
}

// ScanMemory is the in-memory counterpart of ScanStore, for a campaign
// that never went to a store: the store's scanner folds mem's colf image
// through the suite restricted to passes (zero means all), so the report
// is exactly what a scan of the same samples in a store gives. The
// reports of passes left out come back nil.
func ScanMemory(mem *results.Memory, idx *Index, start time.Time, binWidth time.Duration, passes PassSet) (*SuiteReport, error) {
	if mem == nil || idx == nil {
		return nil, errors.New("analysis: nil source or index")
	}
	r, blocks, err := mem.Image()
	if err != nil {
		return nil, err
	}
	c := &covered{idx: idx, start: start, binWidth: binWidth, sel: passes}
	if _, err := c.advance(context.Background(), scan.Config{}, r, 0, blocks); err != nil {
		return nil, err
	}
	return c.report(passes)
}

// ScanStore computes every figure report with one parallel scan over the
// store's samples file. workers <= 0 means one worker per CPU; m may be nil.
// The report is byte-for-byte identical for any worker count.
// A store with no samples returns ErrEmptyStore.
func ScanStore(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics) (*SuiteReport, scan.Stats, error) {
	return ScanStoreSnap(ctx, store, idx, start, binWidth, workers, m, SnapshotOptions{})
}
