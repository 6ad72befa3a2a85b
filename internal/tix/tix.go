// Package tix is the temporal aggregate index: a log with one record
// per sealed block of a binary (colf) store, holding that block's
// resolved delivered RTTs per continent as one ascending slab. An
// arbitrary [since, until) window composes its fully covered blocks from
// resident prefix sums of the records' curve grids, and the edge blocks
// it cuts from their resident codes — decoded the first time any window
// cuts them — instead of re-scanning every row in the window. Each
// sample's RTT is stored once.
//
// The index lives in a sidecar (samples.tix) next to the samples file,
// in the record format every derived file of a store shares
// (internal/snap): a binding record ties it to (pass set, probe index,
// campaign meta), and block i's record is the i-th CRC-guarded record,
// appended as the block seals. Any mismatch — binding, torn tail, a
// record whose byte range or row totals no longer match the store's
// block list, a slab that is not finite and ascending — drops the
// invalid suffix or the whole file. Corruption is never worse than a
// cache miss: queries fall back to decoding blocks.
//
// # Block record
//
//	block = 0x02 | varint startOff | varint endOff
//	      | uvarint rows | uvarint delivered
//	      | uvarint #continents
//	      | ( continent byte | uvarint n | n × float64 LE, ascending )*
//
// Records append in block order, and a record is a function of its
// block alone, so growing the index incrementally or rebuilding it in
// one pass produces identical files.
//
// # What stays resident
//
// Open streams the file one record at a time through one reused buffer
// (snap.Walk), and nothing of a record outlives it: from each record,
// checksummed anyway, it derives the block's curve grid (see curve.go)
// and keeps only the running prefix sums: cum[i] totals blocks [0, i),
// so a covered run [i, j) is cum[j] − cum[i], however long, plus a slab
// directory: each slab's sidecar offset and the CRC-32C of each chunk of
// it, taken from bytes just verified (0.8 % of the file). Extend derives
// the same from the records it writes. Views share both; curves compose
// with no sidecar I/O, and a quantile reads only the chunks holding its
// rank's bin, each checked against its resident CRC before it is used.
//
// Each record also has a slot, empty after Open and Extend, that the
// first window to cut its block fills with edge codes (curve.go, 2 B per
// row) from a CRC-checked decode. Later windows, through any View, count
// them with no store read; like prefix rows, they are not checked again.
package tix

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/snap"
)

// PassSetCDF names the pass state this format version stores per block:
// the per-continent delivered-RTT slabs behind /cdf and the windowed
// /quantile. A different pass set never applies.
const PassSetCDF = "continent-cdf-v2"

// recBlock tags a block record.
const recBlock = 0x02

// Binding is the identity the sidecar binds to: the pass set
// (PassSetCDF), the probe index fingerprint (core.Index.Fingerprint) and
// the campaign meta fingerprint (core.MetaFingerprint). An index opened
// under a different binding is discarded and rebuilt.
type Binding = snap.Binding

// BindingFor is the binding over these index and meta fingerprints.
func BindingFor(index, meta string) Binding {
	return Binding{PassSet: PassSetCDF, Index: index, Meta: meta}
}

// Continents resolves probe IDs to continents — the slice of core.Index
// the block folds need: a dense table indexed by probe ID,
// ContinentUnknown for probes the analysis skips (as are IDs past its
// end). The resolver used at build time must match the one used at
// query time; the Binding's index fingerprint is what pins that.
type Continents interface {
	ContinentTable() []geo.Continent
}

// chunkSize is the slab chunk a quantile reads and verifies as one: 64
// samples. 256 B read as fast with twice the CRCs; 1024 and 4096 slower.
const chunkSize = 512

// blockRec is block i's slab directory entry: per continent, the sidecar
// offset of its slab and the CRC of each chunk (the last may be short),
// and its edge code slot, which the Index and every View share.
type blockRec struct {
	off  [numContinents]int64
	crc  [numContinents][]uint32
	edge *atomic.Pointer[edgeCodes]
}

// Index is a temporal aggregate index opened for maintenance: Extend
// appends block records as blocks seal, View publishes immutable query
// handles. The Index itself is single-writer (callers serialize Extend
// and View); Views are safe for concurrent Query against a concurrent
// Extend: records and prefix rows are append-only, a View only sees
// those that existed when it was taken, and a code slot fills by CAS.
type Index struct {
	path    string
	f       *os.File
	binding Binding
	log     *slog.Logger

	recs []blockRec // record i describes block i
	cum  []prefix   // cum[i] totals blocks [0, i); len(recs)+1 rows
	size int64      // current file size (append offset)
	dec  *colf.BlockDecoder
	pool *pools
}

// pools keeps the idle query scratch an Index and all its Views share.
type pools struct {
	// decoders: a decode fills ~25 bytes of column buffers per row, and
	// a query that allocated them afresh would hand the collector a
	// megabyte per request.
	decoders sync.Pool
	// results: a Result carries 22 KB of counts, and once asked for
	// quantiles its edge values, slab chunks and gather candidates; a
	// released Result keeps them all for the next Query.
	results sync.Pool
}

// decoder takes an idle decoder from the pool (or makes one); the
// caller puts it back. A decoded block is only valid until then.
func (p *pools) decoder() *colf.BlockDecoder {
	if d, ok := p.decoders.Get().(*colf.BlockDecoder); ok {
		return d
	}
	return colf.NewBlockDecoder()
}

// Open opens (or creates) the sidecar at path and validates it against
// the given binding and the store's current sealed block list. A
// missing file, a bad magic, or a binding mismatch yields a freshly
// initialized empty index; a torn or invalid record suffix is
// truncated away and the valid prefix kept. Open never decodes store
// blocks — call Extend to grow the index to the block list.
func Open(path string, b Binding, blocks []colf.BlockInfo, log *slog.Logger) (*Index, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if log == nil {
		log = obs.Discard
	}
	ix := &Index{
		path: path, f: f, binding: b, log: log,
		dec:  colf.NewBlockDecoder(),
		pool: new(pools),
	}
	if err := ix.load(blocks); err != nil {
		f.Close()
		return nil, err
	}
	return ix, nil
}

// load validates the existing file — the shared record checks first,
// then each record in full, which is where its prefix row comes from —
// and truncates to the valid prefix or resets the file as the discipline
// demands. The file streams through snap.Walk's one record buffer, and
// nothing here keeps a payload byte past its record: the prefix row and
// the directory entry are derived while the record is at hand.
func (ix *Index) load(blocks []colf.BlockInfo) error {
	fi, err := ix.f.Stat()
	if err != nil {
		return err
	}
	p, err := snap.Walk(ix.f, fi.Size(), ix.binding, func(rec snap.Record) error {
		if ix.cum == nil {
			// A record past the block list fails pin: room for one per block.
			ix.recs, ix.cum = make([]blockRec, 0, len(blocks)), make([]prefix, 1, len(blocks)+1)
		}
		h, s, err := decodeBlock(rec.Payload)
		if err != nil {
			return fmt.Errorf("corrupt block record: %w", err)
		}
		if err := h.pin(blocks, len(ix.recs)); err != nil {
			return fmt.Errorf("stale block record: %w", err)
		}
		if err := ix.grow(h, s); err != nil {
			return fmt.Errorf("corrupt block record: %w", err)
		}
		ix.recs = append(ix.recs, locate(rec.Off+snap.PayloadOffset, rec.Payload, s))
		return nil
	})
	if err != nil {
		return err
	}
	if p.Valid == 0 {
		if fi.Size() != 0 {
			ix.log.Info("tix reset", "path", ix.path, "reason", p.Stop)
		}
		return ix.reset()
	}
	if ix.cum == nil {
		ix.cum = make([]prefix, 1)
	}
	ix.size = p.Valid
	if p.Stop == "" {
		return nil
	}
	ix.log.Info("tix truncated", "path", ix.path, "reason", p.Stop, "offset", p.Valid)
	return ix.f.Truncate(p.Valid)
}

// reset empties the index and rewrites the file as a bare binding.
func (ix *Index) reset() error {
	ix.recs, ix.cum = nil, make([]prefix, 1)
	img := snap.Image(ix.binding)
	if err := ix.f.Truncate(0); err != nil {
		return err
	}
	if _, err := ix.f.WriteAt(img, 0); err != nil {
		return err
	}
	ix.size = int64(len(img))
	return ix.f.Sync()
}

// header is a block record's fixed part: the block's byte range in the
// samples file and its zone totals.
type header struct {
	startOff, endOff int64
	rows, delivered  uint64
}

// slabs are one block's per-continent slabs: ascending float64 bits,
// little-endian, nil for a continent with no samples.
type slabs [numContinents][]byte

// at returns the k-th sample of a slab.
func at(s []byte, k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(s[8*k:])) }

// encodeBlock appends one block record payload to p, from the block's
// header and its per-continent samples, each already sorted ascending.
func encodeBlock(p []byte, h header, vals *[numContinents][]float64) []byte {
	p = append(p, recBlock)
	p = snap.AppendVarint(p, h.startOff)
	p = snap.AppendVarint(p, h.endOff)
	p = snap.AppendUvarint(p, h.rows)
	p = snap.AppendUvarint(p, h.delivered)
	n := 0
	for _, vs := range vals {
		if len(vs) > 0 {
			n++
		}
	}
	p = snap.AppendUvarint(p, uint64(n))
	for ct, vs := range vals {
		if len(vs) == 0 {
			continue
		}
		p = snap.AppendUvarint(append(p, byte(ct)), uint64(len(vs)))
		for _, v := range vs {
			p = snap.AppendFloat(p, v)
		}
	}
	return p
}

// decodeBlock parses a block record payload. The slabs alias payload;
// their samples are checked by grow, not here.
func decodeBlock(payload []byte) (header, slabs, error) {
	var h header
	var s slabs
	if len(payload) == 0 || payload[0] != recBlock {
		return h, s, fmt.Errorf("tix: not a block record")
	}
	c := snap.NewCursor(payload[1:])
	var err error
	if h.startOff, err = c.Varint(); err != nil {
		return h, s, err
	}
	if h.endOff, err = c.Varint(); err != nil {
		return h, s, err
	}
	if h.startOff < 0 || h.endOff <= h.startOff {
		return h, s, fmt.Errorf("tix: block byte range [%d, %d) invalid", h.startOff, h.endOff)
	}
	if h.rows, err = c.Uvarint(); err != nil {
		return h, s, err
	}
	if h.delivered, err = c.Uvarint(); err != nil {
		return h, s, err
	}
	if h.delivered > h.rows {
		return h, s, fmt.Errorf("tix: block delivered %d exceeds rows %d", h.delivered, h.rows)
	}
	n, err := c.Uvarint()
	if err != nil {
		return h, s, err
	}
	if n > uint64(len(geo.Continents())) {
		return h, s, fmt.Errorf("tix: block claims %d continents", n)
	}
	prev := -1
	var total uint64
	for i := uint64(0); i < n; i++ {
		cb, err := c.Byte()
		if err != nil {
			return h, s, err
		}
		if int(cb) <= prev || geo.Continent(cb) == geo.ContinentUnknown || int(cb) >= numContinents {
			return h, s, fmt.Errorf("tix: bad continent byte %d in block", cb)
		}
		prev = int(cb)
		k, err := c.Uvarint()
		if err != nil {
			return h, s, err
		}
		if k == 0 || k > uint64(c.Remaining())/8 {
			return h, s, fmt.Errorf("tix: slab claims %d samples, %d bytes remain", k, c.Remaining())
		}
		if s[cb], err = c.Bytes(int(k) * 8); err != nil {
			return h, s, err
		}
		total += k
	}
	if c.Remaining() != 0 {
		return h, s, fmt.Errorf("tix: %d trailing block bytes", c.Remaining())
	}
	if total > h.delivered {
		return h, s, fmt.Errorf("tix: block holds %d samples but %d delivered rows", total, h.delivered)
	}
	return h, s, nil
}

// pin holds block record i to the store's current block list: block i
// must exist and its byte boundaries and row totals must match exactly.
// A store that was truncated or rewritten shifts offsets and fails here,
// invalidating the record and everything appended after it.
func (h header) pin(blocks []colf.BlockInfo, i int) error {
	if i >= len(blocks) {
		return fmt.Errorf("record %d past %d sealed blocks", i, len(blocks))
	}
	bi := blocks[i]
	if h.startOff != bi.Off || h.endOff != bi.Off+bi.Len {
		return fmt.Errorf("record covers [%d, %d), store block %d is [%d, %d)", h.startOff, h.endOff, i, bi.Off, bi.Off+bi.Len)
	}
	if h.rows != uint64(bi.Zone.Rows) || h.delivered != uint64(bi.Zone.Delivered) {
		return fmt.Errorf("record covers %d/%d rows/delivered, store has %d/%d",
			h.rows, h.delivered, bi.Zone.Rows, bi.Zone.Delivered)
	}
	return nil
}

// grow appends the prefix row that adds one more block to the last:
// its zone totals and, per continent, its slab's cumulative bin counts.
// The slabs are validated in the same linear pass — every sample finite
// and none below its predecessor — so a record that passed its CRC but
// holds a NaN or an unsorted slab is rejected, never composed.
func (ix *Index) grow(h header, s slabs) error {
	n := len(ix.cum)
	ix.cum = append(ix.cum, ix.cum[n-1])
	next := &ix.cum[n]
	next.rows += h.rows
	next.delivered += h.delivered
	for ct, slab := range s {
		row, k := &next.bins[ct], 0
		prev := math.Inf(-1)
		for j := 0; j < len(slab)/8; j++ {
			v := at(slab, j)
			if !(v >= prev) || math.IsInf(v, 0) {
				ix.cum = ix.cum[:n]
				return fmt.Errorf("tix: slab sample %d of %v is %v after %v", j, geo.Continent(ct), v, prev)
			}
			prev = v
			for b := curveBin(v); k < b; k++ {
				row[k] += uint64(j)
			}
		}
		for all := uint64(len(slab) / 8); k <= curveBins; k++ {
			row[k] += all
		}
	}
	return nil
}

// locate builds the directory entry of a record whose payload starts at
// sidecar offset at, from slabs s that alias it and that grow validated.
func locate(at int64, payload []byte, s slabs) blockRec {
	rec := blockRec{edge: new(atomic.Pointer[edgeCodes])}
	for ct, slab := range s {
		crc := make([]uint32, (len(slab)+chunkSize-1)/chunkSize)
		for c := range crc {
			crc[c] = snap.Checksum(slab[c*chunkSize : min((c+1)*chunkSize, len(slab))])
		}
		// slab aliases payload, so their capacities end together.
		rec.off[ct], rec.crc[ct] = at+int64(cap(payload)-cap(slab)), crc
	}
	return rec
}

// sortSlab sorts the finite values vs ascending — in slices.Sort's
// order, with −0 before +0 — by an LSD radix sort over their float bits
// mapped to order-preserving keys; a byte position every key shares
// takes no pass. It returns scratch, grown to 2·len(vs) keys if it was
// short, for the next call.
func sortSlab(vs []float64, scratch []uint64) []uint64 {
	n := len(vs)
	if cap(scratch) < 2*n {
		scratch = make([]uint64, 2*n)
	}
	keys, tmp := scratch[:n], scratch[n:2*n]
	for i, v := range vs {
		// Flip a negative value's every bit and a positive one's sign.
		k := math.Float64bits(v)
		keys[i] = k ^ (uint64(int64(k)>>63) | 1<<63)
	}
	for shift := 0; shift < 64; shift += 8 {
		var count [256]int
		for _, k := range keys {
			count[byte(k>>shift)]++
		}
		if n == 0 || count[byte(keys[0]>>shift)] == n {
			continue
		}
		at := 0
		for d, m := range count {
			count[d], at = at, at+m
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		vs[i] = math.Float64frombits(k ^ (uint64(^(int64(k) >> 63)) | 1<<63))
	}
	return scratch
}

// Extend grows the index to cover the given sealed block list, which
// must be the store's full list (a superset of what previous calls
// saw — the store is append-only). Every block past the last record
// decodes once, its coded rows' resolved samples (no slot is filled)
// sort into per-continent slabs, and
// its record appends; the record then goes through the same decode and
// prefix derivation Open runs, so a built and a reopened index hold the
// same rows. Appended records are fsynced once per call. A failed call
// keeps the records it wrote and drops the prefix row of the one it did
// not, so a later call resumes from a consistent index.
func (ix *Index) Extend(store io.ReaderAt, blocks []colf.BlockInfo, cls Continents) error {
	if cls == nil {
		return fmt.Errorf("tix: nil continent resolver")
	}
	defer func() { ix.cum = ix.cum[:len(ix.recs)+1] }()
	tbl := cls.ContinentTable()
	var vals [numContinents][]float64
	var scratch []uint64
	var payload, rec []byte
	var codes edgeCodes
	start := len(ix.recs)
	// Room for every row appended: a one-shot build allocates it once.
	n := max(len(blocks)-start, 0)
	ix.recs, ix.cum = slices.Grow(ix.recs, n), slices.Grow(ix.cum, n)
	for i := start; i < len(blocks); i++ {
		bi := blocks[i]
		blk, err := ix.dec.DecodeCols(store, bi, 0)
		if err != nil {
			return err
		}
		if err := codes.code(blk, tbl); err != nil {
			return fmt.Errorf("tix: block %d: %w", i, err)
		}
		for ct := range vals {
			vals[ct] = vals[ct][:0]
		}
		codes.values(&vals, blk.RTT, 0, blk.Rows())
		for _, vs := range vals {
			scratch = sortSlab(vs, scratch)
		}
		// blk.Zone is the CRC-verified footer zone — the trusted row totals.
		h := header{startOff: bi.Off, endOff: bi.Off + bi.Len, rows: uint64(blk.Zone.Rows), delivered: uint64(blk.Zone.Delivered)}
		payload = encodeBlock(payload[:0], h, &vals)
		h, s, err := decodeBlock(payload)
		if err == nil {
			err = ix.grow(h, s)
		}
		if err != nil {
			return err
		}
		rec = snap.AppendRecord(rec[:0], payload)
		if _, err := ix.f.WriteAt(rec, ix.size); err != nil {
			return err
		}
		ix.recs = append(ix.recs, locate(ix.size+snap.PayloadOffset, payload, s))
		ix.size += int64(len(rec))
	}
	if len(ix.recs) > start {
		return ix.f.Sync()
	}
	return nil
}

// Frontier returns how many sealed blocks the index has records for.
func (ix *Index) Frontier() int { return len(ix.recs) }

// Nodes returns the stored block record count.
func (ix *Index) Nodes() int { return len(ix.recs) }

// ResidentBytes reports what the index keeps in memory, by capacity:
// its prefix rows, its slab directory of offsets, chunk CRCs and code
// slots, and the edge codes that windows have filled those slots with.
func (ix *Index) ResidentBytes() (prefixRows, directory, codes int64) {
	prefixRows = int64(cap(ix.cum)) * int64(unsafe.Sizeof(prefix{}))
	directory = int64(cap(ix.recs)) * int64(unsafe.Sizeof(blockRec{}))
	for i := range ix.recs {
		directory += int64(unsafe.Sizeof(*ix.recs[i].edge))
		for _, crc := range ix.recs[i].crc {
			directory += int64(cap(crc)) * 4
		}
	}
	return prefixRows, directory, codeBytes(ix.recs)
}

// codeBytes totals the edge codes filled into recs' slots, by capacity.
func codeBytes(recs []blockRec) (n int64) {
	for i := range recs {
		if e := recs[i].edge.Load(); e != nil {
			n += int64(unsafe.Sizeof(*e)) + 2*int64(cap(e.codes)) + 8*int64(cap(e.times)) + 4*int64(cap(e.first))
		}
	}
	return n
}

// Path returns the sidecar path.
func (ix *Index) Path() string { return ix.path }

// Close releases the sidecar handle. Views taken earlier must not be
// queried afterwards.
func (ix *Index) Close() error { return ix.f.Close() }

// View publishes an immutable query handle over the records stored so
// far. It shares the slab directory and its code slots, the prefix rows
// and the file handle: all three only ever grow past what the view can
// see, so a later Extend never races a concurrent Query.
func (ix *Index) View() *View {
	n := len(ix.recs)
	return &View{f: ix.f, recs: ix.recs[:n:n], cum: ix.cum[: n+1 : n+1], pool: ix.pool}
}
