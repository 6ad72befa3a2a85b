// Package scan is the parallel dataset scanner. A store's samples file
// is a sequence of colf blocks; the scanner skips blocks whose zone maps
// cannot match the predicate, cuts the rest into contiguous groups, and
// runs each group on its own worker feeding per-worker partial
// aggregates (Passes), which merge in group order. Because groups are
// contiguous and merged in file order, a scan produces the same report
// bytes for any worker count — the same determinism guarantee
// internal/engine gives the generation side.
package scan

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/colf"
)

// Pass is one streaming aggregate: it observes every matching row of a
// block group, block by block, and can fold another worker's partial
// state into itself. Merge is always called with partials from later
// groups, in group order, so an order-sensitive accumulation (a float
// sum, a first-wins minimum) reconstructs the sequential file-order
// fold exactly.
type Pass interface {
	// Columns reports the optional columns ObserveBlock reads. Probe,
	// RTT and loss are always decoded; ColTime and ColRegionIDs only
	// when some pass (or the predicate) needs them, which is a major
	// perf lever for passes that ignore timestamps.
	Columns() colf.ColumnSet
	// ObserveBlock observes every row of blk in row order. Every row
	// passes results.Sample.Validate and matches the scan's predicate:
	// a block the predicate covers only partly arrives compacted to its
	// matching rows (Dict and Zone still describe the stored block).
	ObserveBlock(blk *colf.Block) error
	// Merge folds other — the same Pass type built by a later worker —
	// into the receiver.
	Merge(other Pass) error
}

// Config describes one scan.
type Config struct {
	// Path is the colf samples file to scan.
	Path string
	// Workers is the group/worker count; values < 1 use GOMAXPROCS.
	Workers int
	// NewPasses builds the pass set for one worker. It is called
	// sequentially with worker = 0..n-1 before any decoding starts; the
	// caller keeps its own reference to the worker-0 passes, which
	// receive every merge and hold the final state when File returns.
	// All workers must produce the same pass types in the same order.
	NewPasses func(worker int) ([]Pass, error)
	// Predicate, when non-empty, restricts the scan to matching samples:
	// whole blocks whose zone maps cannot match are skipped — the
	// pushdown that makes windowed queries cheap — and the rows of the
	// remaining blocks are filtered exactly.
	Predicate *colf.Predicate
	// Metrics, when set, receives scan_* instruments.
	Metrics *Metrics
	// Log, when set, receives a scan-completion event with the stats.
	Log *slog.Logger
}

// Stats summarises one completed scan.
type Stats struct {
	Workers int    // block groups actually scanned
	Samples uint64 // samples observed
	// RowsScanned counts rows decoded and examined, before predicate
	// row-filtering (Samples counts only matches).
	RowsScanned uint64
	Bytes       int64           // file bytes covered
	Duration    time.Duration   // wall-clock scan time
	Busy        []time.Duration // per-worker busy time, group order

	// Prefix accounting: what an earlier fold covered before the first
	// block scanned (Blocks' prefixBlocks and prefixBytes); zero when
	// the scan starts at the first block.
	PrefixBlocks int
	PrefixBytes  int64
	// DataEnd is where sample data ends: the end of the last block,
	// excluding any trailing index. A snapshot taken from this scan
	// covers [0, DataEnd).
	DataEnd int64

	BlocksTotal   int   // blocks in the file, including the prefix
	BlocksRead    int   // blocks decoded
	BlocksSkipped int   // blocks skipped via zone maps
	BlocksZone    int   // always 0: every block a scan uses is decoded; kept for readers of the old field
	BytesDecoded  int64 // encoded bytes actually decoded
}

// SamplesPerSec returns the scan's decode throughput.
func (st Stats) SamplesPerSec() float64 {
	if st.Duration <= 0 {
		return 0
	}
	return float64(st.Samples) / st.Duration.Seconds()
}

// MBPerSec returns the scan's byte throughput in MB/s.
func (st Stats) MBPerSec() float64 {
	if st.Duration <= 0 {
		return 0
	}
	return float64(st.Bytes) / 1e6 / st.Duration.Seconds()
}

// Utilization returns the mean fraction of the scan wall-clock each
// worker spent busy, in [0, 1].
func (st Stats) Utilization() float64 {
	if st.Duration <= 0 || st.Workers == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range st.Busy {
		busy += b
	}
	return busy.Seconds() / (st.Duration.Seconds() * float64(st.Workers))
}

// File scans the samples file at cfg.Path through the configured pass
// set. On success the worker-0 passes (retained by the caller via
// NewPasses) hold the fully merged aggregates. A zero-length file — a
// store created but never written — scans as an empty dataset.
func File(ctx context.Context, cfg Config) (Stats, error) {
	if cfg.Path == "" {
		return Stats{}, fmt.Errorf("scan: missing Path")
	}
	f, err := os.Open(cfg.Path)
	if err != nil {
		return Stats{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Stats{}, err
	}
	rd, err := colf.NewReader(f, fi.Size())
	if err != nil {
		return Stats{}, err
	}
	return Blocks(ctx, cfg, f, fi.Size(), rd.Blocks(), 0, 0)
}
