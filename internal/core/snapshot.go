package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/colf"
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
	// RefreshFactor is ignored: a resumed scan rewrites the file once
	// its delta reaches DefaultRefreshFactor × the covered prefix. The
	// field stays for callers that still set it.
	RefreshFactor float64
	// Log, when set, receives snapshot lifecycle events (hit, miss,
	// invalidation, write) for the run's flight recorder.
	Log *slog.Logger
	// Passes names the passes the caller will read from the report; the
	// others come back nil. The zero value reports all five. A non-zero
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
// DefaultRefreshFactor × the covered prefix. Deferring a rewrite is
// never a correctness risk: the next scan re-reads the same small
// suffix.
func (so SnapshotOptions) rewriteDue(st scan.Stats) bool {
	if so.Path == "" {
		return false
	}
	return st.PrefixBytes == 0 || float64(st.DataEnd-st.PrefixBytes) >= DefaultRefreshFactor*float64(st.PrefixBytes)
}

// DefaultRefreshFactor is the refresh gate: the snapshot is rewritten
// once the unscanned suffix passes 1/16 of the covered prefix, keeping
// any later resumed scan within ~6% of a cold scan's decode volume while
// snapshot rewrites stay logarithmic in store growth.
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

// binding is what a snapshot of c over store binds to: the pass set and
// figure geometry, the probe index and the campaign meta.
func (c *covered) binding(store *results.Store) snap.Binding {
	return snap.Binding{PassSet: passSetID(c.start, c.binWidth), Index: c.idx.Fingerprint(), Meta: MetaFingerprint(store.Meta())}
}

// openSamples opens the store's samples file: the one handle a store
// fold reads the snapshot's windows, the blocks and the new snapshot's
// windows through.
func openSamples(store *results.Store, idx *Index) (*os.File, int64, error) {
	if store == nil || idx == nil {
		return nil, 0, errors.New("analysis: nil store or index")
	}
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// loadSnapshot seeds c, empty and over the snapshot passes, from the
// snapshot at so.Path when it binds to c and store and its content
// windows match f (size bytes). Any failure leaves c empty after
// counting a miss (no file) or an invalidation (anything else) — the
// fold then runs cold.
func (c *covered) loadSnapshot(f io.ReaderAt, size int64, store *results.Store, so SnapshotOptions) {
	sm := so.Metrics
	invalidate := func(reason string) {
		sm.Invalidate()
		so.log().Info("snapshot invalidated", "path", so.Path, "reason", reason)
	}
	rec, err := snap.ReadFile(so.Path, c.binding(store))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		sm.Miss()
		so.log().Debug("snapshot miss", "path", so.Path)
		return
	case errors.Is(err, snap.ErrMismatch):
		invalidate("header mismatch")
		return
	case err != nil:
		invalidate("unreadable: " + err.Error())
		return
	}
	cur := snap.NewCursor(rec)
	cov, err := decodeCoverage(cur)
	if err != nil {
		invalidate("coverage: " + err.Error())
		return
	}
	if cov.Bytes > size {
		// Covered data no longer exists: the store was truncated (e.g. a
		// checkpoint resume rolled back a partial round).
		invalidate("store truncated below covered boundary")
		return
	}
	head, tail, err := snap.WindowCRCs(f, cov.Bytes)
	if err != nil || head != cov.HeadCRC || tail != cov.TailCRC {
		invalidate("content window CRC mismatch")
		return
	}
	state, _ := cur.Bytes(cur.Remaining()) // the rest of the record: cannot fail
	suite, err := NewSuiteFromState(c.idx, c.start, c.binWidth, state)
	if err != nil {
		invalidate("state decode: " + err.Error())
		return
	}
	c.suite, c.samples, c.bytes, c.blocks, c.fromSnap = suite, cov.Samples, cov.Bytes, cov.Blocks, true
}

// writeIfDue persists c as the store's snapshot when it holds both
// snapshot passes and the refresh gate asks for a write after st. Its
// child spans split the cost into CPU (snap.encode) and the file write
// with its fsyncs and rename (snap.fsync).
func (c *covered) writeIfDue(ctx context.Context, f io.ReaderAt, store *results.Store, st scan.Stats, so SnapshotOptions) error {
	if !c.suite.holds(snapshotPasses) || !so.rewriteDue(st) {
		return nil
	}
	parent := obs.From(ctx).Child("snapshot.write")
	defer parent.End()
	span := parent.Child("snap.encode")
	img, err := c.snapshotImage(f, store)
	span.End()
	if err == nil {
		span = parent.Child("snap.fsync")
		err = snap.ReplaceFile(so.Path, img)
		span.End()
	}
	if err != nil {
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	so.Metrics.Wrote()
	so.log().Info("snapshot written", "path", so.Path,
		"covered_bytes", c.bytes, "covered_blocks", c.blocks, "samples", c.samples)
	return nil
}

// snapshotImage frames the snapshot file: the binding, then one record
// of c's coverage, with f's window CRCs over it, followed by c's
// encoded state.
func (c *covered) snapshotImage(f io.ReaderAt, store *results.Store) ([]byte, error) {
	cov := coverage{Bytes: c.bytes, Blocks: c.blocks, Samples: c.samples}
	var err error
	if cov.HeadCRC, cov.TailCRC, err = snap.WindowCRCs(f, c.bytes); err != nil {
		return nil, err
	}
	state, err := c.suite.EncodeState()
	if err != nil {
		return nil, err
	}
	return snap.Image(c.binding(store), append(cov.append(nil), state...)), nil
}

// advanceTo locates the complete blocks of f (size bytes) past the
// covered prefix and folds them into c. A torn tail fails the fold.
func (c *covered) advanceTo(ctx context.Context, cfg scan.Config, f io.ReaderAt, size int64) (scan.Stats, error) {
	var blocks []colf.BlockInfo
	if size > 0 {
		var err error
		if blocks, _, err = colf.Locate(f, size, max(c.bytes, colf.HeaderSize)); err != nil {
			return scan.Stats{}, err
		}
	}
	return c.advance(ctx, cfg, f, size, blocks)
}

// foldStore folds the samples file f (size bytes) of store into c,
// which holds only its index and geometry. A pass set the snapshot can
// answer (see SnapshotOptions) folds both snapshot passes, resumed
// from so.Path when the file validates; any other folds cold over
// exactly so.Passes and never opens the file. A store with no samples
// returns ErrEmptyStore.
func (c *covered) foldStore(ctx context.Context, f io.ReaderAt, size int64, store *results.Store, cfg scan.Config, so SnapshotOptions) (scan.Stats, error) {
	c.sel = so.Passes
	if so.resumes() {
		c.sel = snapshotPasses
		span := obs.From(ctx).Child("snap.load")
		c.loadSnapshot(f, size, store, so)
		span.End()
	}
	st, err := c.advanceTo(ctx, cfg, f, size)
	switch {
	case err != nil && c.bytes > 0:
		// The covered boundary no longer holds (the store changed in a way
		// the window CRCs could not see): drop the snapshot, fold cold.
		so.Metrics.Invalidate()
		so.log().Warn("snapshot invalidated", "path", so.Path,
			"reason", "resumed scan failed past covered boundary", "error", err)
		*c = covered{idx: c.idx, start: c.start, binWidth: c.binWidth, sel: c.sel, once: c.once}
		st, err = c.advanceTo(ctx, cfg, f, size)
	case err == nil && st.PrefixBytes > 0:
		so.Metrics.Hit(st.PrefixBlocks, st.PrefixBytes)
		so.log().Info("snapshot hit", "path", so.Path,
			"covered_bytes", st.PrefixBytes, "covered_blocks", st.PrefixBlocks,
			"delta_bytes", st.DataEnd-st.PrefixBytes)
	}
	if err == nil && c.samples == 0 {
		err = ErrEmptyStore
	}
	return st, err
}

// ScanStoreSnap is ScanStore with snapshot support: a Figure 4/5 pass
// set is seeded from a valid snapshot and scans only the store suffix
// past its covered boundary, falling back to a cold full scan whenever
// the snapshot is missing, corrupt, or does not exactly prefix the
// store. Reports are byte-identical to a cold ScanStore for any worker
// count. The snapshot is an accelerator: failing to write it costs the
// next run its resume, never this one its report.
func ScanStoreSnap(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics, so SnapshotOptions) (*SuiteReport, scan.Stats, error) {
	f, size, err := openSamples(store, idx)
	if err != nil {
		return nil, scan.Stats{}, err
	}
	defer f.Close()
	c := &covered{idx: idx, start: start, binWidth: binWidth, once: true}
	st, err := c.foldStore(ctx, f, size, store, scan.Config{Workers: workers, Metrics: m, Log: so.Log}, so)
	if err != nil {
		return nil, st, err
	}
	if err := c.writeIfDue(ctx, f, store, st, so); err != nil {
		so.Metrics.WriteFailed()
		so.log().Warn("snapshot not written; the next run scans cold", "path", so.Path, "error", err)
	}
	span := obs.From(ctx).Child("suite.report")
	defer span.End()
	rep, err := c.report(so.Passes)
	return rep, st, err
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
	f, size, err := openSamples(store, idx)
	if err != nil {
		return scan.Stats{}, err
	}
	defer f.Close()
	so.Passes = snapshotPasses
	c := &covered{idx: idx, start: start, binWidth: binWidth}
	st, err := c.foldStore(ctx, f, size, store, scan.Config{Workers: workers, Metrics: m, Log: so.Log}, so)
	if errors.Is(err, ErrEmptyStore) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	return st, c.writeIfDue(ctx, f, store, st, so)
}
