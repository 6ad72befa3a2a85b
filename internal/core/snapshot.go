package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/colf"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/snap"
	"repro/internal/stats"
)

// Analysis snapshots: the suite's merged pass state, persisted next to
// the samples file so re-analyzing an append-only store costs O(delta).
// A snapshot binds to (pass-set version + figure geometry, probe index,
// campaign meta, covered byte/block boundary, content window CRCs); any mismatch discards it and the scan runs cold, so a
// stale or corrupt snapshot can never change a figure — the worst case
// is a cache miss. State is serialized with exact IEEE-754 bits and in
// insertion order, which keeps figures byte-identical whether computed
// cold, from any intermediate snapshot, or across any worker count.

// suiteStateVersion versions the suite's serialized state layout. Bump
// it whenever a pass's accumulator or codec changes; old snapshots then
// invalidate instead of deserializing garbage.
const suiteStateVersion = 3

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
	// suffix — it amortizes the O(total-state) encode and multi-megabyte
	// file write against a delta that grew enough to pay for them.
	RefreshFactor float64
	// Log, when set, receives snapshot lifecycle events (hit, miss,
	// invalidation, write) for the run's flight recorder.
	Log *obs.Logger
	// Passes names the passes the caller will read from the report; the
	// others come back nil. The zero value reports all six. A scan with
	// no Path, or a resumed one that leaves the snapshot alone, works
	// only these; one that writes the file works the whole suite,
	// because the file must hold every pass's state.
	Passes PassSet
}

// rewriteDue is the refresh gate, asked once before a resumed scan (to
// pick between the selected passes and the whole suite) and once after
// every scan (to write): cold scans always write, a pure hit never
// does — the file already holds exactly that state — and a resumed
// scan writes once its delta reaches RefreshFactor × the covered prefix.
func (so SnapshotOptions) rewriteDue(resume *scan.Resume, dataEnd int64) bool {
	if so.Path == "" {
		return false
	}
	if resume == nil {
		return true
	}
	delta := dataEnd - resume.Bytes
	return delta != 0 && (so.RefreshFactor <= 0 || float64(delta) >= so.RefreshFactor*float64(resume.Bytes))
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
// Figure 7 geometry the LastMile pass is parameterized by.
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

// EncodeState serializes the suite's full accumulator state, passes in
// the fixed Passes() order. Call it before Report: report-time queries
// sort distributions in place, and the snapshot must capture the
// insertion-order state a future merge replays from.
//
// The state opens with its region table — every region name the
// nearest-region buffer references, ascending, each spelled once — and
// the buffer's region column carries table indexes.
//
// A pass-selective suite holds only part of the state and refuses.
func (s *Suite) EncodeState() ([]byte, error) {
	if s.sel != 0 {
		return nil, fmt.Errorf("core: suite holds only passes %v; its state cannot be encoded", s.sel)
	}
	table, codes := s.Nearest.sortedRegions()
	b := make([]byte, 0, s.stateSizeHint())
	b = snap.AppendUvarint(b, uint64(len(table)))
	for _, region := range table {
		b = snap.AppendString(b, region)
	}
	b = appendProximityState(b, s.Proximity)
	b = appendMinRTTState(b, s.MinRTT)
	b = appendNearestState(b, s.Nearest, codes)
	b = appendDiurnalState(b, s.Diurnal)
	b = appendProviderState(b, s.Provider)
	return b, nil
}

// stateSizeHint estimates the encoded state size from sample counts, so
// EncodeState allocates its buffer once instead of repeatedly copying a
// multi-megabyte slice while growing.
func (s *Suite) stateSizeHint() int {
	n := 4096 + 64*(len(s.Nearest.regions)+len(s.MinRTT.mins)+len(s.Proximity.byCountry)+len(s.Provider.byProvider))
	for i := range s.Nearest.probes {
		r := &s.Nearest.probes[i]
		n += nearestRowBytes*len(r.rtt) + 8*len(r.nanos) + 16
	}
	for h := range s.Diurnal.bins {
		n += 8*s.Diurnal.bins[h].N() + 32
	}
	for _, a := range s.Provider.byProvider {
		n += 8 * a.dist.N()
	}
	return n
}

// NewSuiteFromState builds a suite seeded with previously serialized
// state. The caller must pass the same idx/start/binWidth the state was
// accumulated under (enforced upstream via the snapshot header).
func NewSuiteFromState(idx *Index, start time.Time, binWidth time.Duration, state []byte) (*Suite, error) {
	return suiteFromState(idx, start, binWidth, state, 0)
}

// suiteFromState is NewSuiteFromState restricted to the passes sel
// names. The whole state is still walked and held to every layout
// rule; a suite that selects neither Figure 6 nor Figure 7 just keeps
// none of the nearest-region buffer, which is most of what decoding
// allocates.
func suiteFromState(idx *Index, start time.Time, binWidth time.Duration, state []byte, sel PassSet) (*Suite, error) {
	s, err := NewSuite(idx, start, binWidth)
	if err != nil {
		return nil, err
	}
	if sel.partial() {
		s.sel = sel
	}
	c := snap.NewCursor(state)
	table, err := decodeRegionTable(c)
	if err != nil {
		return nil, err
	}
	if err := decodeProximityState(c, s.Proximity); err != nil {
		return nil, err
	}
	if err := decodeMinRTTState(c, s.MinRTT); err != nil {
		return nil, err
	}
	if err := decodeNearestState(c, s.Nearest, table, sel == 0 || sel&nearestPasses != 0); err != nil {
		return nil, err
	}
	if err := decodeDiurnalState(c, s.Diurnal); err != nil {
		return nil, err
	}
	if err := decodeProviderState(c, s.Provider); err != nil {
		return nil, err
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in suite state", c.Remaining())
	}
	return s, nil
}

// sortState pre-sorts every distribution buffer exactly as report-time
// queries would. Run before EncodeState: the sorted buffers serialize
// with their sorted flag set, so a snapshot-seeded report pays only a
// nearly-sorted re-sort of the appended tail instead of full O(n log n)
// sorts of the whole history. Sorting commutes with every figure — sums
// are carried as exact bits and quantiles see the same multiset.
func (s *Suite) sortState() {
	for h := range s.Diurnal.bins {
		s.Diurnal.bins[h].Sort()
	}
	for _, a := range s.Provider.byProvider {
		a.dist.Sort()
	}
}

// sortedStrings returns m's keys ascending, for deterministic encoding.
func sortedStrings[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// decodeRegionTable reads the state's region table, insisting on the
// strictly ascending order the writer emits: that is what makes a code
// comparison a region comparison everywhere below.
func decodeRegionTable(c *snap.Cursor) ([]string, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.Remaining()) {
		return nil, fmt.Errorf("core: region table claims %d names, %d bytes remain", n, c.Remaining())
	}
	table := make([]string, n)
	for i := range table {
		if table[i], err = c.String(); err != nil {
			return nil, err
		}
		if i > 0 && table[i] <= table[i-1] {
			return nil, fmt.Errorf("core: region table not strictly ascending at entry %d", i)
		}
	}
	return table, nil
}

// The nearest-region buffer serializes per probe, ascending, as three
// length-prefixed fixed-width columns: region codes (2 bytes, indexes
// into the state's region table), RTT bits (8) and, for the probes
// Figure 7 admits, unix nanoseconds (8). The nearest row itself is not
// stored; it is the first minimum of the RTT column.
const nearestRowBytes = 2 + 8

// sortedRegions returns the pass's region names ascending and, per
// interned id, the name's index in that order.
func (p *NearestPass) sortedRegions() (table []string, codes []uint16) {
	table = slices.Clone(p.regions)
	sort.Strings(table)
	codes = make([]uint16, len(p.regions))
	for id, name := range p.regions {
		code, _ := slices.BinarySearch(table, name)
		codes[id] = uint16(code)
	}
	return table, codes
}

func appendNearestState(b []byte, p *NearestPass, codes []uint16) []byte {
	count := 0
	for i := range p.probes {
		if len(p.probes[i].rtt) > 0 {
			count++
		}
	}
	b = snap.AppendUvarint(b, uint64(count))
	for id := range p.probes {
		r := &p.probes[id]
		n := len(r.rtt)
		if n == 0 {
			continue
		}
		b = snap.AppendVarint(b, int64(id))
		b = snap.AppendUvarint(b, uint64(n))
		for _, region := range r.region {
			b = binary.LittleEndian.AppendUint16(b, codes[region])
		}
		b = snap.AppendUvarint(b, uint64(n))
		for _, rtt := range r.rtt {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rtt))
		}
		b = snap.AppendUvarint(b, uint64(len(r.nanos)))
		for _, t := range r.nanos {
			b = binary.LittleEndian.AppendUint64(b, uint64(t))
		}
	}
	return b
}

// readColumn reads one length-prefixed column of width-byte cells.
func readColumn(c *snap.Cursor, width int) ([]byte, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.Remaining()/width) {
		return nil, fmt.Errorf("core: column claims %d cells of %d bytes, %d bytes remain", n, width, c.Remaining())
	}
	return c.Bytes(int(n) * width)
}

// decodeNearestState reads the buffer into the fresh pass p, holding
// every probe to the layout rules: IDs strictly ascending and in idx,
// equally long non-empty region and RTT columns, a time column of the
// same length exactly when Figure 7 admits the probe, region codes
// inside table, finite RTTs. With keep false the rows are checked the
// same way and dropped.
func decodeNearestState(c *snap.Cursor, p *NearestPass, table []string, keep bool) error {
	count, err := c.Uvarint()
	if err != nil {
		return err
	}
	if keep {
		// The table is ascending, so interning it in order makes every
		// code its own id.
		for _, name := range table {
			if _, err := p.intern(name); err != nil {
				return err
			}
		}
	}
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		id, err := c.Varint()
		if err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("core: probe %d out of order in nearest-region state", id)
		}
		prev = id
		if id >= int64(len(p.probes)) || p.rows(int(id)) == nil {
			return fmt.Errorf("core: probe %d in nearest-region state is not in the index", id)
		}
		r := &p.probes[id]
		regions, err := readColumn(c, 2)
		if err != nil {
			return err
		}
		rtts, err := readColumn(c, 8)
		if err != nil {
			return err
		}
		nanos, err := readColumn(c, 8)
		if err != nil {
			return err
		}
		n, timed := len(rtts)/8, 0
		if r.lastMile {
			timed = n
		}
		if n == 0 || len(regions)/2 != n || len(nanos)/8 != timed {
			return fmt.Errorf("core: probe %d columns hold %d regions, %d RTTs, %d times (want %d)", id, len(regions)/2, n, len(nanos)/8, timed)
		}
		var row probeRows
		if keep {
			row = probeRows{region: make([]uint16, n), rtt: make([]float64, n), nanos: make([]int64, timed), lastMile: r.lastMile}
		}
		best := math.Inf(1)
		for k := 0; k < n; k++ {
			code := binary.LittleEndian.Uint16(regions[2*k:])
			if int(code) >= len(table) {
				return fmt.Errorf("core: region code %d outside the %d-entry table", code, len(table))
			}
			rtt := math.Float64frombits(binary.LittleEndian.Uint64(rtts[8*k:]))
			if math.IsNaN(rtt) || math.IsInf(rtt, 0) {
				return fmt.Errorf("core: invalid RTT %v in nearest-region state", rtt)
			}
			if !keep {
				continue
			}
			if rtt < best {
				best, row.best = rtt, k
			}
			row.region[k], row.rtt[k] = code, rtt
		}
		if keep {
			for k := range row.nanos {
				row.nanos[k] = int64(binary.LittleEndian.Uint64(nanos[8*k:]))
			}
			*r = row
		}
	}
	return nil
}

func appendProximityState(b []byte, p *ProximityPass) []byte {
	b = snap.AppendUvarint(b, uint64(len(p.byCountry)))
	for _, country := range sortedStrings(p.byCountry) {
		a := p.byCountry[country]
		b = snap.AppendString(b, country)
		b = snap.AppendFloat(b, a.min)
		b = snap.AppendUvarint(b, uint64(a.samples))
	}
	return b
}

func decodeProximityState(c *snap.Cursor, p *ProximityPass) error {
	count, err := c.Uvarint()
	if err != nil {
		return err
	}
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
		if _, dup := p.byCountry[country]; dup {
			return fmt.Errorf("core: duplicate country %q in proximity state", country)
		}
		p.byCountry[country] = &proximityAcc{min: min, samples: int(samples)}
	}
	return nil
}

func appendMinRTTState(b []byte, p *MinRTTPass) []byte {
	b = snap.AppendUvarint(b, uint64(len(p.mins)))
	for _, id := range sortedProbeIDs(p.mins) {
		b = snap.AppendVarint(b, int64(id))
		b = snap.AppendFloat(b, p.mins[id])
	}
	return b
}

func decodeMinRTTState(c *snap.Cursor, p *MinRTTPass) error {
	count, err := c.Uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		id, err := c.Varint()
		if err != nil {
			return err
		}
		min, err := c.Float()
		if err != nil {
			return err
		}
		p.mins[int(id)] = min
	}
	return nil
}

func appendDiurnalState(b []byte, p *DiurnalPass) []byte {
	for h := range p.bins {
		b = p.bins[h].AppendState(b)
	}
	return b
}

func decodeDiurnalState(c *snap.Cursor, p *DiurnalPass) error {
	for h := range p.bins {
		d, err := stats.DecodeDistState(c)
		if err != nil {
			return err
		}
		p.bins[h] = *d
	}
	return nil
}

func appendProviderState(b []byte, p *ProviderPass) []byte {
	b = snap.AppendUvarint(b, uint64(len(p.byProvider)))
	for _, provider := range sortedStrings(p.byProvider) {
		a := p.byProvider[provider]
		b = snap.AppendString(b, provider)
		b = a.dist.AppendState(b)
		b = snap.AppendUvarint(b, uint64(a.lost))
	}
	return b
}

func decodeProviderState(c *snap.Cursor, p *ProviderPass) error {
	count, err := c.Uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		provider, err := c.String()
		if err != nil {
			return err
		}
		d, err := stats.DecodeDistState(c)
		if err != nil {
			return err
		}
		lost, err := c.Uvarint()
		if err != nil {
			return err
		}
		p.byProvider[provider] = &providerAcc{dist: d, lost: int(lost)}
	}
	return nil
}

// loadSnapshot reads, validates, and deserializes the snapshot at path.
// Any failure returns nils after counting a miss (no file) or an
// invalidation (anything else) — the caller then scans cold.
func loadSnapshot(path string, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, so SnapshotOptions) (*Suite, uint64, *scan.Resume) {
	sm := so.Metrics
	invalidate := func(reason string) {
		sm.Invalidate()
		so.Log.Info("snapshot invalidated", "path", path, "reason", reason)
	}
	h, payload, err := snap.ReadFile(path)
	if err != nil {
		if errors.Is(err, snap.ErrNoSnapshot) {
			sm.Miss()
			so.Log.Debug("snapshot miss", "path", path)
		} else {
			invalidate("unreadable: " + err.Error())
		}
		return nil, 0, nil
	}
	if h.PassSet != passSetID(start, binWidth) ||
		h.Index != idx.Fingerprint() ||
		h.Meta != MetaFingerprint(store.Meta()) ||
		h.Format != snap.FormatBinary ||
		h.CoveredBytes <= 0 {
		invalidate("header mismatch")
		return nil, 0, nil
	}
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		invalidate("store unreadable")
		return nil, 0, nil
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || h.CoveredBytes > fi.Size() {
		// Covered data no longer exists: the store was truncated (e.g. a
		// checkpoint resume rolled back a partial round).
		invalidate("store truncated below covered boundary")
		return nil, 0, nil
	}
	head, tail, err := snap.WindowCRCs(f, h.CoveredBytes)
	if err != nil || head != h.HeadCRC || tail != h.TailCRC {
		invalidate("content window CRC mismatch")
		return nil, 0, nil
	}
	resume := &scan.Resume{Bytes: h.CoveredBytes, Blocks: h.CoveredBlocks}
	// Pass selection is decided here, before the state is decoded and
	// the delta scanned: a run that will rewrite the snapshot needs every
	// pass whole, any other run only the passes it reports. A data end
	// that cannot be located means the resumed scan will fail and fall
	// back to a cold one, which writes.
	var sel PassSet
	if so.Passes.partial() {
		if end, err := sealedDataEnd(f, fi.Size(), h.CoveredBytes); err == nil && !so.rewriteDue(resume, end) {
			sel = so.Passes
		}
	}
	suite, err := suiteFromState(idx, start, binWidth, payload, sel)
	if err != nil {
		invalidate("state decode: " + err.Error())
		return nil, 0, nil
	}
	return suite, h.Samples, resume
}

// sealedDataEnd returns, ahead of the scan, the scan.Stats.DataEnd a
// scan resumed at boundary will report: the end of the last sealed
// block.
func sealedDataEnd(f *os.File, size int64, boundary int64) (int64, error) {
	blocks, err := colf.DeltaBlocks(f, size, boundary)
	if err != nil || len(blocks) == 0 {
		return boundary, err
	}
	last := blocks[len(blocks)-1]
	return last.Off + last.Len, nil
}

// writeSnapshot atomically persists merged's state as covering the
// store prefix the scan just consumed. Its three child spans split the
// cost into CPU (snap.sort, snap.encode) and the file write with its
// fsync and rename (snap.fsync).
func writeSnapshot(ctx context.Context, path string, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, merged *Suite, samples uint64, st scan.Stats, so SnapshotOptions) error {
	parent := obs.From(ctx).Child("snapshot.write")
	defer parent.End()
	span := parent.Child("snap.sort")
	merged.sortState()
	span.End()
	span = parent.Child("snap.encode")
	h, state, err := snapshotImage(store, idx, start, binWidth, merged, samples, st)
	span.End()
	if err != nil {
		return err
	}
	span = parent.Child("snap.fsync")
	err = snap.WriteFile(path, h, state)
	span.End()
	if err != nil {
		return err
	}
	so.Metrics.Wrote()
	so.Log.Info("snapshot written", "path", path,
		"covered_bytes", h.CoveredBytes, "covered_blocks", h.CoveredBlocks, "samples", samples)
	return nil
}

// snapshotImage builds the header binding merged's state to the store
// prefix st covers, and the encoded state.
func snapshotImage(store *results.Store, idx *Index, start time.Time, binWidth time.Duration, merged *Suite, samples uint64, st scan.Stats) (snap.Header, []byte, error) {
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		return snap.Header{}, nil, err
	}
	defer f.Close()
	head, tail, err := snap.WindowCRCs(f, st.DataEnd)
	if err != nil {
		return snap.Header{}, nil, err
	}
	h := snap.Header{
		PassSet:       passSetID(start, binWidth),
		Index:         idx.Fingerprint(),
		Meta:          MetaFingerprint(store.Meta()),
		Format:        snap.FormatBinary,
		CoveredBytes:  st.DataEnd,
		CoveredBlocks: st.BlocksTotal,
		Samples:       samples,
		HeadCRC:       head,
		TailCRC:       tail,
	}
	state, err := merged.EncodeState()
	return h, state, err
}

// scanStoreMerged runs the scan — snapshot-seeded when so.Path names a
// valid snapshot, cold otherwise — and returns the merged suite before
// any report runs, plus the total samples folded into it.
func scanStoreMerged(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics, so SnapshotOptions) (*Suite, uint64, scan.Stats, error) {
	if store == nil || idx == nil {
		return nil, 0, scan.Stats{}, errors.New("analysis: nil store or index")
	}
	var prefix *Suite
	var prefixSamples uint64
	var resume *scan.Resume
	if so.Path != "" {
		span := obs.From(ctx).Child("snap.load")
		prefix, prefixSamples, resume = loadSnapshot(so.Path, store, idx, start, binWidth, so)
		span.End()
	}
	return scanSeeded(ctx, store, idx, start, binWidth, workers, m, so, prefix, prefixSamples, resume)
}

// scanSeeded is scanStoreMerged after the snapshot decision: it scans
// past resume, folds the result onto prefix (both nil for a cold scan)
// and writes the snapshot when the gate says so. A pass-selective
// prefix keeps the scan and the merge to its passes and is never
// written, whatever the store did since loadSnapshot looked at it; a
// cold scan without a snapshot path works only so.Passes.
func scanSeeded(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics, so SnapshotOptions, prefix *Suite, prefixSamples uint64, resume *scan.Resume) (*Suite, uint64, scan.Stats, error) {
	var sel PassSet
	switch {
	case prefix != nil:
		sel = prefix.sel
	case so.Path == "" && so.Passes.partial():
		sel = so.Passes // no snapshot to write: no pass needs to be whole
	}
	scanOnce := func(r *scan.Resume) ([]*Suite, scan.Stats, error) {
		var suites []*Suite
		st, err := scan.File(ctx, scan.Config{
			Path:    store.SamplesPath(),
			Workers: workers,
			Metrics: m,
			Log:     so.Log,
			Resume:  r,
			NewPasses: func(worker int) ([]scan.Pass, error) {
				s, err := NewSuite(idx, start, binWidth)
				if err != nil {
					return nil, err
				}
				s.sel = sel
				suites = append(suites, s)
				return s.Passes(), nil
			},
		})
		return suites, st, err
	}
	suites, st, err := scanOnce(resume)
	if err != nil && resume != nil {
		// The covered boundary no longer holds (the store changed in a way
		// the window CRCs could not see): drop the snapshot, scan cold.
		so.Metrics.Invalidate()
		so.Log.Warn("snapshot invalidated", "path", so.Path,
			"reason", "resumed scan failed past covered boundary", "error", err)
		prefix, prefixSamples, resume, sel = nil, 0, nil, 0
		suites, st, err = scanOnce(nil)
	}
	if err != nil {
		return nil, 0, st, err
	}
	merged := suites[0]
	if prefix != nil {
		span := obs.From(ctx).Child("snap.merge")
		err := prefix.Merge(merged)
		span.End()
		if err != nil {
			return nil, 0, st, err
		}
		merged = prefix
		so.Metrics.Hit(resume.Blocks, resume.Bytes)
		so.Log.Info("snapshot hit", "path", so.Path,
			"covered_bytes", resume.Bytes, "covered_blocks", resume.Blocks,
			"delta_bytes", st.DataEnd-resume.Bytes, "passes", merged.sel.String())
	}
	total := prefixSamples + st.Samples
	if total == 0 {
		return nil, 0, st, ErrEmptyStore
	}
	if !so.rewriteDue(resume, st.DataEnd) {
		return merged, total, st, nil
	}
	if merged.sel != 0 {
		// The store grew past the gate between the decision and the scan.
		// Deferring is safe (see RefreshFactor): the next run decides from
		// the larger store and works the whole suite.
		so.Log.Info("snapshot rewrite deferred", "path", so.Path, "passes", merged.sel.String())
		return merged, total, st, nil
	}
	if err := writeSnapshot(ctx, so.Path, store, idx, start, binWidth, merged, total, st, so); err != nil {
		return nil, 0, st, fmt.Errorf("core: writing snapshot: %w", err)
	}
	return merged, total, st, nil
}

// ScanStoreSnap is ScanStore with snapshot support: it seeds the passes
// from a valid snapshot and scans only the store suffix past its
// covered boundary, falling back to a cold full scan whenever the
// snapshot is missing, corrupt, or does not exactly prefix the store.
// Reports are byte-identical to a cold ScanStore for any worker count.
func ScanStoreSnap(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics, so SnapshotOptions) (*SuiteReport, scan.Stats, error) {
	merged, total, st, err := scanStoreMerged(ctx, store, idx, start, binWidth, workers, m, so)
	if err != nil {
		return nil, st, err
	}
	// Report only after the snapshot is on disk: report-time queries sort
	// accumulated samples in place, and the snapshot must hold the
	// insertion-order state.
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
// boundary. An empty store is a no-op, which lets a checkpoint hook call
// it before any sample exists.
func UpdateSnapshot(ctx context.Context, store *results.Store, idx *Index, start time.Time, binWidth time.Duration, workers int, m *scan.Metrics, so SnapshotOptions) (scan.Stats, error) {
	if so.Path == "" {
		return scan.Stats{}, errors.New("core: UpdateSnapshot needs a snapshot path")
	}
	_, _, st, err := scanStoreMerged(ctx, store, idx, start, binWidth, workers, m, so)
	if errors.Is(err, ErrEmptyStore) {
		return st, nil
	}
	return st, err
}
