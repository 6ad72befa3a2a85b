package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/snap"
)

// Analysis snapshots: the state of the passes that do not grow with the
// campaign, persisted next to the samples file so Figures 4 and 5 of an
// append-only store cost O(delta). The rule: a pass whose state grows
// with the samples is never persisted — whatever is sized by the
// samples is folded by the process that prints it. A snapshot binds to
// (pass-set version + figure geometry, probe index, campaign meta,
// covered byte/block boundary, content window CRCs); any mismatch
// discards it and the scan runs cold, so a stale or corrupt snapshot
// can never change a figure — the worst case is a cache miss. State is
// serialized with exact IEEE-754 bits in key order, which keeps figures
// byte-identical whether computed cold, from any intermediate snapshot,
// or across any worker count.

// suiteStateVersion versions the suite's serialized state layout. Bump
// it whenever a snapshot pass's accumulator or codec changes; old
// snapshots then invalidate instead of deserializing garbage.
const suiteStateVersion = 5

// snapshotPasses are the passes a snapshot carries: per-country and
// per-probe minima, sized by the world.
const snapshotPasses = PassProximity | PassMinRTT

// ErrEmptyStore reports a store with no samples — analyses have nothing
// to compute, which callers should surface distinctly rather than as a
// generic analysis failure.
var ErrEmptyStore = errors.New("core: store holds no samples")

// SnapshotOptions configures snapshot use for one scan. A zero value
// (empty Path) disables snapshots entirely.
type SnapshotOptions struct {
	// Path is the snapshot file, normally store.SnapshotPath().
	Path string
	// Metrics, when set, receives snap_* instruments.
	Metrics *snap.Metrics
	// RefreshFactor gates the snapshot rewrite after a resumed scan: the
	// file is rewritten only once the newly scanned suffix exceeds
	// RefreshFactor × the covered prefix size (cold scans always write).
	// Zero rewrites on any new data. Deferring a rewrite is never a
	// correctness risk — the next scan simply re-reads the same small
	// suffix.
	RefreshFactor float64
	// Log, when set, receives snapshot lifecycle events (hit, miss,
	// invalidation, write) for the run's flight recorder.
	Log *slog.Logger
	// Passes names the passes the caller will read from the report; the
	// others come back nil. The zero value reports all six. A non-zero
	// set within the two snapshot passes (Figures 4 and 5) is the only
	// kind that opens the file at Path: it folds both, so it can resume
	// and rewrite. Any other set scans cold over exactly its passes,
	// and writes the file only if those include both snapshot passes.
	Passes PassSet
}

// log is Log, or obs.Discard when Log is nil.
func (so SnapshotOptions) log() *slog.Logger {
	if so.Log == nil {
		return obs.Discard
	}
	return so.Log
}

// resumes reports whether the scan so describes is one the snapshot can
// answer.
func (so SnapshotOptions) resumes() bool {
	return so.Path != "" && so.Passes != 0 && so.Passes&^snapshotPasses == 0
}

// rewriteDue is the refresh gate, asked after every scan: cold scans
// always write, a pure hit never does — the file already holds exactly
// that state — and a resumed scan writes once its delta reaches
// RefreshFactor × the covered prefix.
func (so SnapshotOptions) rewriteDue(st scan.Stats) bool {
	if so.Path == "" {
		return false
	}
	if st.PrefixBytes == 0 {
		return true
	}
	delta := st.DataEnd - st.PrefixBytes
	return delta != 0 && (so.RefreshFactor <= 0 || float64(delta) >= so.RefreshFactor*float64(st.PrefixBytes))
}

// DefaultRefreshFactor is the refresh gate the CLIs use: the snapshot
// is rewritten once the unscanned suffix passes 1/16 of the covered
// prefix, keeping any later resumed scan within ~6% of a cold scan's
// decode volume while snapshot rewrites stay logarithmic in store
// growth.
const DefaultRefreshFactor = 1.0 / 16

// Fingerprint hashes the index's analysis-relevant attributes: probe
// set, geography, access class, tier, longitude. Two indexes with equal
// fingerprints classify every sample identically.
func (idx *Index) Fingerprint() string {
	idx.fpOnce.Do(func() {
		// One record per probe, ascending: "id|country|continent|access|tier|lon-bits-hex;".
		b := make([]byte, 0, 32*len(idx.byID))
		for id, info := range idx.byID {
			if !info.known {
				continue
			}
			b = strconv.AppendInt(b, int64(id), 10)
			b = append(append(b, '|'), info.country...)
			b = strconv.AppendUint(append(b, '|'), uint64(info.continent), 10)
			b = strconv.AppendUint(append(b, '|'), uint64(info.access), 10)
			b = strconv.AppendUint(append(b, '|'), uint64(info.tier), 10)
			b = strconv.AppendUint(append(b, '|'), math.Float64bits(info.lon), 16)
			b = append(b, ';')
		}
		h := fnv.New64a()
		h.Write(b)
		idx.fp = fmt.Sprintf("%016x", h.Sum64())
	})
	return idx.fp
}

// MetaFingerprint hashes the campaign identity a snapshot binds to. End
// is deliberately excluded: extending an append-only campaign's window
// must not orphan its snapshot — the covered boundary and content
// windows already pin the data prefix. The temporal aggregate index
// (internal/tix) binds its sidecar with the same fingerprint, so both
// derived files invalidate under exactly the same store identities.
func MetaFingerprint(m results.Meta) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%x|%d|%d", m.Seed, m.Start.UnixNano(), math.Float64bits(m.IntervalHours), m.Probes, m.Regions)
	return fmt.Sprintf("%016x", h.Sum64())
}

// passSetID names the analysis configuration: state version plus the
// figure geometry the suite is parameterized by.
func passSetID(start time.Time, binWidth time.Duration) string {
	return fmt.Sprintf("suite-v%d|start=%d|width=%d", suiteStateVersion, start.UTC().UnixNano(), int64(binWidth))
}

// Merge folds other — the suite accumulated over the samples after the
// receiver's — into s, pass by pass. Receiver-first ordering matters:
// merges are earlier-shard-wins, so the receiver must cover the earlier
// bytes.
func (s *Suite) Merge(other *Suite) error {
	if s.sel != other.sel {
		return fmt.Errorf("core: cannot merge a suite over passes %v into one over %v", other.sel, s.sel)
	}
	op := other.Passes()
	for i, p := range s.Passes() {
		if err := p.Merge(op[i]); err != nil {
			return err
		}
	}
	return nil
}

// EncodeState serializes the snapshot passes' accumulators:
//
//	state := proximity minRTT
//
// per-country minima and counts, then per-probe minima, each ascending
// by key. A suite that does not hold both passes refuses.
func (s *Suite) EncodeState() ([]byte, error) {
	if !s.holds(snapshotPasses) {
		return nil, fmt.Errorf("core: suite holds only passes %v; its state cannot be encoded", s.sel)
	}
	b := appendProximityState(nil, s.Proximity)
	return appendMinRTTState(b, s.MinRTT), nil
}

// NewSuiteFromState builds a suite over the snapshot passes seeded with
// previously serialized state. The caller must pass the same
// idx/start/binWidth the state was accumulated under (enforced upstream
// via the snapshot header).
func NewSuiteFromState(idx *Index, start time.Time, binWidth time.Duration, state []byte) (*Suite, error) {
	s, err := NewSuite(idx, start, binWidth)
	if err != nil {
		return nil, err
	}
	s.sel = snapshotPasses
	c := snap.NewCursor(state)
	if err := decodeProximityState(c, s.Proximity); err != nil {
		return nil, err
	}
	if err := decodeMinRTTState(c, s.MinRTT); err != nil {
		return nil, err
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in suite state", c.Remaining())
	}
	return s, nil
}

// finiteRTT is the check both sections hold their minima to.
func finiteRTT(rtt float64, section string) error {
	if math.IsNaN(rtt) || math.IsInf(rtt, 0) {
		return fmt.Errorf("core: invalid RTT %v in %s state", rtt, section)
	}
	return nil
}

func appendProximityState(b []byte, p *ProximityPass) []byte {
	b = snap.AppendUvarint(b, uint64(len(p.byCountry)))
	for _, country := range sortedKeys(p.byCountry) {
		a := p.byCountry[country]
		b = snap.AppendString(b, country)
		b = snap.AppendFloat(b, a.min)
		b = snap.AppendUvarint(b, uint64(a.samples))
	}
	return b
}

// decodeProximityState reads the section into the fresh pass p, holding
// it to the layout the writer emits: countries strictly ascending, a
// finite minimum and at least one sample behind it.
func decodeProximityState(c *snap.Cursor, p *ProximityPass) error {
	count, err := c.Uvarint()
	if err != nil {
		return err
	}
	prev := ""
	for i := uint64(0); i < count; i++ {
		country, err := c.String()
		if err != nil {
			return err
		}
		min, err := c.Float()
		if err != nil {
			return err
		}
		samples, err := c.Uvarint()
		if err != nil {
			return err
		}
		if i > 0 && country <= prev {
			return fmt.Errorf("core: country %q out of order in proximity state", country)
		}
		prev = country
		if err := finiteRTT(min, "proximity"); err != nil {
			return err
		}
		if samples == 0 || samples > math.MaxInt64 {
			return fmt.Errorf("core: country %q holds %d samples in proximity state", country, samples)
		}
		p.byCountry[country] = &proximityAcc{min: min, samples: int(samples)}
	}
	return nil
}

func appendMinRTTState(b []byte, p *MinRTTPass) []byte {
	b = snap.AppendUvarint(b, uint64(len(p.mins)))
	for _, id := range sortedKeys(p.mins) {
		b = snap.AppendVarint(b, int64(id))
		b = snap.AppendFloat(b, p.mins[id])
	}
	return b
}

// decodeMinRTTState reads the section into the fresh pass p: probe IDs
// strictly ascending and in idx, finite minima.
func decodeMinRTTState(c *snap.Cursor, p *MinRTTPass) error {
	count, err := c.Uvarint()
	if err != nil {
		return err
	}
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		id, err := c.Varint()
		if err != nil {
			return err
		}
		min, err := c.Float()
		if err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("core: probe %d out of order in min-rtt state", id)
		}
		prev = id
		if !p.idx.Known(int(id)) {
			return fmt.Errorf("core: probe %d in min-rtt state is not in the index", id)
		}
		if err := finiteRTT(min, "min-rtt"); err != nil {
			return err
		}
		p.mins[int(id)] = min
	}
	return nil
}

// coverage heads the snapshot's one record: the store prefix the state
// after it summarizes.
type coverage struct {
	// Bytes is the store data size covered, a block boundary; Blocks
	// counts the blocks before it.
	Bytes  int64
	Blocks int
	// Samples is the number of samples folded into the state.
	Samples uint64
	// HeadCRC and TailCRC are snap.WindowCRCs over [0, Bytes): they catch
	// in-place rewrites of the covered data that keep its length.
	HeadCRC, TailCRC uint32
}

func (c coverage) append(b []byte) []byte {
	b = snap.AppendVarint(b, c.Bytes)
	b = snap.AppendUvarint(b, uint64(c.Blocks))
	b = snap.AppendUvarint(b, c.Samples)
	b = snap.AppendUint32(b, c.HeadCRC)
	return snap.AppendUint32(b, c.TailCRC)
}

func decodeCoverage(cur *snap.Cursor) (coverage, error) {
	var c coverage
	var err error
	if c.Bytes, err = cur.Varint(); err != nil {
		return c, err
	}
	blocks, err := cur.Uvarint()
	if err != nil {
		return c, err
	}
	if c.Bytes <= 0 || blocks > uint64(c.Bytes) {
		return c, fmt.Errorf("core: %d blocks covering %d bytes", blocks, c.Bytes)
	}
	c.Blocks = int(blocks)
	if c.Samples, err = cur.Uvarint(); err != nil {
		return c, err
	}
	if c.HeadCRC, err = cur.Uint32(); err != nil {
		return c, err
	}
	c.TailCRC, err = cur.Uint32()
	return c, err
}

// snapshotBinding is what a snapshot of store binds to: the pass set and
// figure geometry, the probe index and the campaign meta.
func snapshotBinding(store *results.Store, idx *Index, start time.Time, binWidth time.Duration) snap.Binding {
	return snap.Binding{PassSet: passSetID(start, binWidth), Index: idx.Fingerprint(), Meta: MetaFingerprint(store.Meta())}
}

// loadSnapshot reads, validates, and deserializes the snapshot at path.
// Any failure returns nils after counting a miss (no file) or an
// invalidation (anything else) — the caller then scans cold.
func loadSnapshot(path string, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, so SnapshotOptions) (*Suite, uint64, *scan.Resume) {
	sm := so.Metrics
	invalidate := func(reason string) {
		sm.Invalidate()
		so.log().Info("snapshot invalidated", "path", path, "reason", reason)
	}
	rec, err := snap.ReadFile(path, snapshotBinding(store, idx, start, binWidth))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		sm.Miss()
		so.log().Debug("snapshot miss", "path", path)
		return nil, 0, nil
	case errors.Is(err, snap.ErrMismatch):
		invalidate("header mismatch")
		return nil, 0, nil
	case err != nil:
		invalidate("unreadable: " + err.Error())
		return nil, 0, nil
	}
	cur := snap.NewCursor(rec)
	cov, err := decodeCoverage(cur)
	if err != nil {
		invalidate("coverage: " + err.Error())
		return nil, 0, nil
	}
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		invalidate("store unreadable")
		return nil, 0, nil
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || cov.Bytes > fi.Size() {
		// Covered data no longer exists: the store was truncated (e.g. a
		// checkpoint resume rolled back a partial round).
		invalidate("store truncated below covered boundary")
		return nil, 0, nil
	}
	head, tail, err := snap.WindowCRCs(f, cov.Bytes)
	if err != nil || head != cov.HeadCRC || tail != cov.TailCRC {
		invalidate("content window CRC mismatch")
		return nil, 0, nil
	}
	state, _ := cur.Bytes(cur.Remaining()) // the rest of the record: cannot fail
	suite, err := NewSuiteFromState(idx, start, binWidth, state)
	if err != nil {
		invalidate("state decode: " + err.Error())
		return nil, 0, nil
	}
	return suite, cov.Samples, &scan.Resume{Bytes: cov.Bytes, Blocks: cov.Blocks}
}

// writeSnapshot durably persists merged's state as covering the store
// prefix the scan just consumed. Its child spans split the cost into CPU
// (snap.encode) and the file write with its fsyncs and rename
// (snap.fsync).
func writeSnapshot(ctx context.Context, path string, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, merged *Suite, samples uint64, st scan.Stats, so SnapshotOptions) error {
	parent := obs.From(ctx).Child("snapshot.write")
	defer parent.End()
	span := parent.Child("snap.encode")
	img, err := snapshotImage(store, idx, start, binWidth, merged, samples, st)
	span.End()
	if err != nil {
		return err
	}
	span = parent.Child("snap.fsync")
	err = snap.ReplaceFile(path, img)
	span.End()
	if err != nil {
		return err
	}
	so.Metrics.Wrote()
	so.log().Info("snapshot written", "path", path,
		"covered_bytes", st.DataEnd, "covered_blocks", st.BlocksTotal, "samples", samples)
	return nil
}

// snapshotImage frames the snapshot file: the binding, then one record
// of the coverage st describes followed by merged's encoded state.
func snapshotImage(store *results.Store, idx *Index, start time.Time, binWidth time.Duration, merged *Suite, samples uint64, st scan.Stats) ([]byte, error) {
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cov := coverage{Bytes: st.DataEnd, Blocks: st.BlocksTotal, Samples: samples}
	if cov.HeadCRC, cov.TailCRC, err = snap.WindowCRCs(f, st.DataEnd); err != nil {
		return nil, err
	}
	state, err := merged.EncodeState()
	if err != nil {
		return nil, err
	}
	return snap.Image(snapshotBinding(store, idx, start, binWidth), append(cov.append(nil), state...)), nil
}

// scanStoreMerged runs the scan so.Passes asks for and returns the
// merged suite before any report runs, plus the total samples folded
// into it. A pass set the snapshot can answer (see SnapshotOptions)
// folds both snapshot passes, seeded from so.Path when the file
// validates; any other scans cold over exactly so.Passes and never
// opens the file.
func scanStoreMerged(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics, so SnapshotOptions) (*Suite, uint64, scan.Stats, error) {
	if store == nil || idx == nil {
		return nil, 0, scan.Stats{}, errors.New("analysis: nil store or index")
	}
	if !so.resumes() {
		return scanSeeded(ctx, store, idx, start, binWidth, workers, m, so, so.Passes, nil, 0, nil)
	}
	span := obs.From(ctx).Child("snap.load")
	prefix, prefixSamples, resume := loadSnapshot(so.Path, store, idx, start, binWidth, so)
	span.End()
	return scanSeeded(ctx, store, idx, start, binWidth, workers, m, so, snapshotPasses, prefix, prefixSamples, resume)
}

// scanSeeded is scanStoreMerged after the snapshot decision: it scans
// past resume with suites over sel and folds the result onto prefix
// (both nil for a cold scan).
func scanSeeded(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics, so SnapshotOptions, sel PassSet, prefix *Suite, prefixSamples uint64, resume *scan.Resume) (*Suite, uint64, scan.Stats, error) {
	scanOnce := func(r *scan.Resume) (*Suite, scan.Stats, error) {
		return fold(idx, start, binWidth, sel, func(newPasses func(int) ([]scan.Pass, error)) (scan.Stats, error) {
			return scan.File(ctx, scan.Config{
				Path:      store.SamplesPath(),
				Workers:   workers,
				Metrics:   m,
				Log:       so.Log,
				Resume:    r,
				NewPasses: newPasses,
			})
		})
	}
	merged, st, err := scanOnce(resume)
	if err != nil && resume != nil {
		// The covered boundary no longer holds (the store changed in a way
		// the window CRCs could not see): drop the snapshot, scan cold.
		so.Metrics.Invalidate()
		so.log().Warn("snapshot invalidated", "path", so.Path,
			"reason", "resumed scan failed past covered boundary", "error", err)
		prefix, prefixSamples, resume = nil, 0, nil
		merged, st, err = scanOnce(nil)
	}
	if err != nil {
		return nil, 0, st, err
	}
	if prefix != nil {
		span := obs.From(ctx).Child("snap.merge")
		err := prefix.Merge(merged)
		span.End()
		if err != nil {
			return nil, 0, st, err
		}
		merged = prefix
		so.Metrics.Hit(resume.Blocks, resume.Bytes)
		so.log().Info("snapshot hit", "path", so.Path,
			"covered_bytes", resume.Bytes, "covered_blocks", resume.Blocks,
			"delta_bytes", st.DataEnd-resume.Bytes)
	}
	total := prefixSamples + st.Samples
	if total == 0 {
		return nil, 0, st, ErrEmptyStore
	}
	return merged, total, st, nil
}

// writeIfDue persists merged as the store's snapshot when it holds both
// snapshot passes over the whole store and the refresh gate asks for a
// write.
func writeIfDue(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, merged *Suite, samples uint64, st scan.Stats, so SnapshotOptions) error {
	if !merged.holds(snapshotPasses) || !so.rewriteDue(st) {
		return nil
	}
	if err := writeSnapshot(ctx, so.Path, store, idx, start, binWidth, merged, samples, st, so); err != nil {
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	return nil
}

// ScanStoreSnap is ScanStore with snapshot support: a Figure 4/5 pass
// set is seeded from a valid snapshot and scans only the store suffix
// past its covered boundary, falling back to a cold full scan whenever
// the snapshot is missing, corrupt, or does not exactly prefix the
// store. Reports are byte-identical to a cold ScanStore for any worker
// count. The snapshot is an accelerator: failing to write it costs the
// next run its resume, never this one its report.
func ScanStoreSnap(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics, so SnapshotOptions) (*SuiteReport, scan.Stats, error) {
	merged, total, st, err := scanStoreMerged(ctx, store, idx, start, binWidth, workers, m, so)
	if err != nil {
		return nil, st, err
	}
	if err := writeIfDue(ctx, store, idx, start, binWidth, merged, total, st, so); err != nil {
		so.Metrics.WriteFailed()
		so.log().Warn("snapshot not written; the next run scans cold", "path", so.Path, "error", err)
	}
	span := obs.From(ctx).Child("suite.report")
	defer span.End()
	rep, err := merged.report(so.Passes)
	if err != nil {
		return nil, st, err
	}
	rep.Samples = total
	return rep, st, nil
}

// UpdateSnapshot refreshes the store's snapshot without producing a
// report, so a later figure run starts from the freshest covered
// boundary. It folds only the snapshot passes, so it resumes from the
// file it wrote last. An empty store is a no-op, which lets a
// checkpoint hook call it before any sample exists.
func UpdateSnapshot(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics, so SnapshotOptions) (scan.Stats, error) {
	if so.Path == "" {
		return scan.Stats{}, errors.New("core: UpdateSnapshot needs a snapshot path")
	}
	so.Passes = snapshotPasses
	merged, total, st, err := scanStoreMerged(ctx, store, idx, start, binWidth, workers, m, so)
	if errors.Is(err, ErrEmptyStore) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	return st, writeIfDue(ctx, store, idx, start, binWidth, merged, total, st, so)
}
