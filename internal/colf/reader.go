package colf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
)

// Reader holds the located blocks of a colf stream and reads their
// bytes from it. Opening reads only the file-level index (or, when the
// index is missing after a crash, rebuilds it from the block footers);
// payloads stay untouched until a BlockDecoder asks for them.
type Reader struct {
	r      io.ReaderAt
	blocks []BlockInfo
}

// NewReader indexes the colf stream held by r. A zero-length stream is
// an empty dataset; anything else must be a version-2 colf stream whose
// blocks are all complete.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size == 0 {
		return &Reader{r: r}, nil
	}
	if size < HeaderSize {
		return nil, fmt.Errorf("colf: file of %d bytes is shorter than the header", size)
	}
	blocks, _, err := Locate(r, size, HeaderSize)
	if err != nil {
		return nil, err
	}
	return &Reader{r: r, blocks: blocks}, nil
}

// Open indexes the colf file at path. The returned closer owns the
// file handle; the Reader stays valid until it is closed.
func Open(path string) (*Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// ReadAt reads from the underlying stream, so a Reader is the data
// source its blocks decode from.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) { return r.r.ReadAt(p, off) }

// Blocks returns the stream's blocks in file order. The slice is
// shared; don't mutate it.
func (r *Reader) Blocks() []BlockInfo { return r.blocks }

// Rows returns the total row count from the zone maps.
func (r *Reader) Rows() uint64 {
	var n uint64
	for _, b := range r.blocks {
		n += uint64(b.Zone.Rows)
	}
	return n
}

// ForEachRow decodes every block in file order and calls fn per row.
func (r *Reader) ForEachRow(fn func(Row) error) error {
	dec := NewBlockDecoder()
	for _, bi := range r.blocks {
		blk, err := dec.Decode(r.r, bi)
		if err != nil {
			return err
		}
		for i := 0; i < blk.Rows(); i++ {
			if err := fn(blk.Row(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ErrTorn marks a block chain that ends in a torn block: the prefix of
// a block a live appender has not finished writing, or that a crash
// cut short.
var ErrTorn = errors.New("torn block")

// Locate returns the complete blocks of the colf stream r (size bytes)
// that start at or after from, and the stable end they reach. from
// must be HeaderSize or a block boundary; anything else is an error, so
// a stale boundary can never be applied. A sealed stream resolves from
// its trailing index. An unsealed one — a live store, whose appender
// writes the index only at close — is walked from from with CRC checks;
// when it ends in a torn block, Locate returns the complete blocks and
// their stable end together with an error wrapping ErrTorn. Strict
// readers fail on that error; a live reader consumes the stable blocks
// and waits for the rest.
func Locate(r io.ReaderAt, size, from int64) ([]BlockInfo, int64, error) {
	if from < HeaderSize || from > size {
		return nil, 0, fmt.Errorf("colf: boundary %d outside the %d-byte stream", from, size)
	}
	if err := readHeader(r); err != nil {
		return nil, 0, err
	}
	blocks, ok, err := loadIndex(r, size)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return walk(r, from, size)
	}
	end := int64(HeaderSize)
	if len(blocks) > 0 {
		end = blocks[len(blocks)-1].Off + blocks[len(blocks)-1].Len
	}
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].Off >= from })
	if from != end && (i == len(blocks) || blocks[i].Off != from) {
		return nil, 0, fmt.Errorf("colf: boundary %d is not a block boundary", from)
	}
	return blocks[i:], end, nil
}

// BlocksTo walks the block chain up to exactly offset, verifying CRCs,
// and returns the blocks of that prefix. It errors when offset is not
// a block boundary — the caller is about to truncate there, and
// cutting a block in half would corrupt the stream.
func BlocksTo(r io.ReaderAt, offset int64) ([]BlockInfo, error) {
	if offset < HeaderSize {
		return nil, fmt.Errorf("colf: offset %d is inside the file header", offset)
	}
	if err := readHeader(r); err != nil {
		return nil, err
	}
	blocks, _, err := walk(r, HeaderSize, offset)
	if err != nil {
		return nil, fmt.Errorf("colf: offset %d is not a block boundary: %w", offset, err)
	}
	return blocks, nil
}

// readHeader refuses a stream r that does not begin with a version-2
// colf file header.
func readHeader(r io.ReaderAt) error {
	var hdr [HeaderSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return err
	}
	return checkHeader(hdr[:])
}

// checkHeader refuses a prefix that is not a version-2 colf header.
func checkHeader(prefix []byte) error {
	ok, err := checkMagic(prefix, header)
	if !ok {
		return fmt.Errorf("colf: bad file header % x", prefix[:min(len(prefix), HeaderSize)])
	}
	return err
}

// loadIndex tries the trailing file-level index. ok=false means the
// trailer is absent (not an error: the stream may simply never have
// been finished); a present-but-corrupt index is an error.
func loadIndex(r io.ReaderAt, size int64) ([]BlockInfo, bool, error) {
	if size < HeaderSize+indexTrailerSize {
		return nil, false, nil
	}
	var trailer [indexTrailerSize]byte
	if _, err := r.ReadAt(trailer[:], size-indexTrailerSize); err != nil {
		return nil, false, err
	}
	if ok, err := checkMagic(trailer[4:], indexMagic); !ok || err != nil {
		return nil, false, err
	}
	idxLen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	idxStart := size - indexTrailerSize - idxLen
	if idxStart < HeaderSize {
		return nil, false, fmt.Errorf("colf: index of %d bytes does not fit the file", idxLen)
	}
	body := make([]byte, idxLen)
	if _, err := r.ReadAt(body, idxStart); err != nil {
		return nil, false, err
	}
	c := &byteCursor{b: body}
	count, err := c.uvarint()
	if err != nil {
		return nil, false, fmt.Errorf("colf: corrupt index: %w", err)
	}
	if count > uint64(size/8) {
		return nil, false, fmt.Errorf("colf: corrupt index: %d blocks in a %d-byte file", count, size)
	}
	blocks := make([]BlockInfo, 0, count)
	prevOff, prevEnd := int64(0), int64(HeaderSize)
	for i := uint64(0); i < count; i++ {
		// An entry is the offset delta, the length and the
		// length-prefixed zone.
		var f [3]uint64
		for k := range f {
			if f[k], err = c.uvarint(); err != nil {
				return nil, false, fmt.Errorf("colf: corrupt index entry %d: %w", i, err)
			}
		}
		raw, err := c.bytes(int(f[2]))
		if err != nil {
			return nil, false, fmt.Errorf("colf: corrupt index entry %d: %w", i, err)
		}
		zone, err := decodeZone(&byteCursor{b: raw})
		if err != nil {
			return nil, false, fmt.Errorf("colf: corrupt index entry %d: %w", i, err)
		}
		bi := BlockInfo{Off: prevOff + int64(f[0]), Len: int64(f[1]), Zone: zone}
		if bi.Off != prevEnd || bi.Len < 12 || bi.Off+bi.Len > idxStart {
			return nil, false, fmt.Errorf("colf: index entry %d places block at [%d,%d) outside [%d,%d)",
				i, bi.Off, bi.Off+bi.Len, prevEnd, idxStart)
		}
		prevOff, prevEnd = bi.Off, bi.Off+bi.Len
		blocks = append(blocks, bi)
	}
	if c.remaining() != 0 {
		return nil, false, fmt.Errorf("colf: %d trailing bytes after index entries", c.remaining())
	}
	if prevEnd != idxStart {
		return nil, false, fmt.Errorf("colf: index covers bytes up to %d, data ends at %d", prevEnd, idxStart)
	}
	return blocks, true, nil
}

// walk follows the block chain from start, a block boundary, toward
// end, checking each block's CRC and parsing its footer zone. A block
// that does not fit before end is a torn tail and stops the walk: walk
// returns the complete blocks and the stable end they reach, with an
// error wrapping ErrTorn when that falls short of end. Corruption
// inside a complete block (implausible lengths, a bad CRC, a corrupt
// zone) is an error with no blocks: appends only ever leave a prefix of
// a block behind, never a complete-looking block with wrong bytes.
func walk(r io.ReaderAt, start, end int64) ([]BlockInfo, int64, error) {
	var blocks []BlockInfo
	var buf []byte
	off := start
	for end-off >= 8 {
		var head [8]byte
		if _, err := r.ReadAt(head[:], off); err != nil {
			return nil, 0, err
		}
		bodyLen := int64(binary.LittleEndian.Uint32(head[0:4]))
		payloadLen := int64(binary.LittleEndian.Uint32(head[4:8]))
		if bodyLen > maxBlockBytes || payloadLen+4 > bodyLen {
			return nil, 0, fmt.Errorf("colf: implausible block lengths (%d, %d) at offset %d", bodyLen, payloadLen, off)
		}
		if off+8+bodyLen > end {
			break
		}
		buf = grow(buf, int(8+bodyLen))
		if _, err := r.ReadAt(buf, off); err != nil {
			return nil, 0, err
		}
		_, zone, err := openBlock(buf, off)
		if err != nil {
			return nil, 0, err
		}
		blocks = append(blocks, BlockInfo{Off: off, Len: 8 + bodyLen, Zone: zone})
		off += 8 + bodyLen
	}
	if off != end {
		return blocks, off, fmt.Errorf("colf: the %d bytes at offset %d are not a complete block: %w", end-off, off, ErrTorn)
	}
	return blocks, off, nil
}

// openBlock checks the encoded block buf (length fields included),
// stored at file offset off: its lengths, its CRC over the payload
// length, payload and footer, and its footer zone. It returns the
// payload and the zone.
func openBlock(buf []byte, off int64) ([]byte, Zone, error) {
	bodyLen := int64(binary.LittleEndian.Uint32(buf[0:4]))
	payloadLen := int64(binary.LittleEndian.Uint32(buf[4:8]))
	if 8+bodyLen != int64(len(buf)) || payloadLen+4 > bodyLen {
		return nil, Zone{}, fmt.Errorf("colf: block at offset %d: lengths (%d, %d) disagree with block length %d",
			off, bodyLen, payloadLen, len(buf))
	}
	payload := buf[8 : 8+payloadLen]
	footer := buf[8+payloadLen : len(buf)-4]
	crc := crc32.ChecksumIEEE(buf[4:8])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	crc = crc32.Update(crc, crc32.IEEETable, footer)
	if got := binary.LittleEndian.Uint32(buf[len(buf)-4:]); got != crc {
		return nil, Zone{}, fmt.Errorf("colf: block at offset %d fails CRC (%08x != %08x)", off, got, crc)
	}
	zone, err := decodeZone(&byteCursor{b: footer})
	if err != nil {
		return nil, Zone{}, fmt.Errorf("colf: block at offset %d: corrupt footer: %w", off, err)
	}
	return payload, zone, nil
}

// Block holds one decoded block in columnar form. Slices are owned by
// the BlockDecoder and overwritten by its next Decode.
//
// The region column is exposed two ways: Region[i] as an interned
// string (filled only when ColRegionStrings was requested), and
// RegionID[i] as the block-local dictionary code with Dict as the
// dictionary — Region[i] == Dict[RegionID[i]]. Batch kernels resolve
// region → accumulator once per dictionary code instead of per row.
// Dict entries are interned across blocks, so equal spellings are
// pointer-equal between blocks of one decoder.
type Block struct {
	Probe    []int
	TimeNano []int64  // empty when decoded without ColTime
	Region   []string // empty when decoded without ColRegionStrings
	RTT      []float64
	Lost     []bool
	RegionID []uint32
	Dict     []string
	// Zone is the block's footer zone, CRC-verified together with the
	// payload — unlike an index zone, it is integrity-protected, so
	// consumers may trust its bounds against the decoded columns.
	Zone Zone
}

// Rows returns the decoded row count.
func (b *Block) Rows() int { return len(b.Probe) }

// EdgeRows returns the row range [lo, hi) of b whose timestamps fall
// inside the half-open window [sinceNano, untilNano) — the rows a
// window predicate admits from a partially covered edge block. The
// block must have been decoded with ColTime. Campaign writers emit
// rows in time order, so the time column is normally non-decreasing;
// EdgeRows verifies that (one compare per row, far cheaper than the
// per-row filter fold it replaces) and then locates both boundaries by
// binary search, so the caller folds only in-window rows with no
// per-row time test. When the column is not monotone, exact is false
// and the full range returns: the caller must filter per row, which
// keeps the semantics identical to MatchRow on every row.
func (b *Block) EdgeRows(sinceNano, untilNano int64) (lo, hi int, exact bool) {
	n := len(b.TimeNano)
	for i := 1; i < n; i++ {
		if b.TimeNano[i] < b.TimeNano[i-1] {
			return 0, n, false
		}
	}
	lo = sort.Search(n, func(i int) bool { return b.TimeNano[i] >= sinceNano })
	hi = sort.Search(n, func(i int) bool { return b.TimeNano[i] >= untilNano })
	return lo, hi, true
}

// Row assembles row i.
func (b *Block) Row(i int) Row {
	return Row{Probe: b.Probe[i], TimeNano: b.TimeNano[i], Region: b.Region[i], RTT: b.RTT[i], Lost: b.Lost[i]}
}

// BlockDecoder decodes blocks, reusing its buffers and interning
// region strings across blocks so a long scan allocates almost
// nothing per block. Not safe for concurrent use; scanners give each
// worker its own.
type BlockDecoder struct {
	buf    []byte
	blk    Block
	dict   []string
	intern map[string]string
}

// NewBlockDecoder returns a ready decoder.
func NewBlockDecoder() *BlockDecoder {
	return &BlockDecoder{intern: make(map[string]string)}
}

// ColumnSet selects which optional columns DecodeCols materializes.
// Probe, RTT, and loss always decode (they are cheap and the
// validation sweep needs them); timestamps, region codes, and per-row
// region strings are the expensive fills a batch kernel can skip.
type ColumnSet uint8

const (
	// ColTime decodes the timestamp column into Block.TimeNano.
	ColTime ColumnSet = 1 << iota
	// ColRegionStrings fills Block.Region with interned strings
	// (implies decoding the dictionary and codes).
	ColRegionStrings
	// ColRegionIDs decodes the region dictionary and per-row codes
	// into Block.Dict and Block.RegionID without the per-row string
	// fill — the form the batch kernels consume.
	ColRegionIDs

	// ColAll is the full row-assembly set Decode uses.
	ColAll = ColTime | ColRegionStrings | ColRegionIDs
)

// Decode reads and decodes the block described by bi. The returned
// Block is valid until the next Decode call.
func (d *BlockDecoder) Decode(r io.ReaderAt, bi BlockInfo) (*Block, error) {
	return d.DecodeCols(r, bi, ColAll)
}

// DecodeCols decodes the block described by bi, materializing only the
// requested optional columns. Skipped columns come back empty (length
// zero, so stale data can never be read by mistake); their bytes are
// still CRC-verified but not parsed.
func (d *BlockDecoder) DecodeCols(r io.ReaderAt, bi BlockInfo, cols ColumnSet) (*Block, error) {
	if bi.Len < 12 || bi.Len > maxBlockBytes {
		return nil, fmt.Errorf("colf: implausible block length %d at offset %d", bi.Len, bi.Off)
	}
	d.buf = grow(d.buf, int(bi.Len))
	if _, err := r.ReadAt(d.buf, bi.Off); err != nil {
		return nil, err
	}
	payload, zone, err := openBlock(d.buf, bi.Off)
	if err != nil {
		return nil, err
	}
	rows := zone.Rows
	if rows > len(payload)+1 {
		// Every row costs at least one payload byte in some column.
		return nil, fmt.Errorf("colf: block at offset %d claims %d rows in %d payload bytes", bi.Off, rows, len(payload))
	}
	d.blk.Zone = zone

	c := &byteCursor{b: payload}
	var secs [5][]byte
	for i := range secs {
		if secs[i], err = sectionBytes(c); err != nil {
			return nil, err
		}
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("colf: block at offset %d: %d stray payload bytes", bi.Off, c.remaining())
	}
	probeSec, timeSec, regionSec, rttSec, lostSec := secs[0], secs[1], secs[2], secs[3], secs[4]

	blk := &d.blk
	blk.Probe = grow(blk.Probe, rows)
	blk.RTT = grow(blk.RTT, rows)
	blk.Lost = grow(blk.Lost, rows)

	// Probe and time columns: delta chains restarting at zero, decoded
	// by the batch kernels.
	if err := decodeDeltaVarints(probeSec, blk.Probe); err != nil {
		return nil, fmt.Errorf("colf: block at offset %d: probe column: %w", bi.Off, err)
	}
	if cols&ColTime != 0 {
		blk.TimeNano = grow(blk.TimeNano, rows)
		if err := decodeDeltaVarints(timeSec, blk.TimeNano); err != nil {
			return nil, fmt.Errorf("colf: block at offset %d: time column: %w", bi.Off, err)
		}
	} else {
		blk.TimeNano = blk.TimeNano[:0]
	}

	// Region column: dictionary then codes (skipped wholesale when the
	// pass set needs neither IDs nor strings — the bytes stay inside
	// the CRC above but are never parsed).
	if cols&(ColRegionIDs|ColRegionStrings) != 0 {
		blk.RegionID = grow(blk.RegionID, rows)
		rc := &byteCursor{b: regionSec}
		dictN, err := rc.uvarint()
		if err != nil {
			return nil, err
		}
		if dictN > uint64(rows) {
			return nil, fmt.Errorf("colf: block at offset %d: dictionary of %d entries for %d rows", bi.Off, dictN, rows)
		}
		d.dict = d.dict[:0]
		for i := uint64(0); i < dictN; i++ {
			n, err := rc.uvarint()
			if err != nil {
				return nil, err
			}
			raw, err := rc.bytes(int(n))
			if err != nil {
				return nil, err
			}
			d.dict = append(d.dict, d.internString(raw))
		}
		blk.Dict = d.dict
		if err := decodeRegionCodes(regionSec[rc.off:], blk.RegionID, len(d.dict)); err != nil {
			return nil, fmt.Errorf("colf: block at offset %d: %w", bi.Off, err)
		}
	} else {
		blk.RegionID = blk.RegionID[:0]
		blk.Dict = nil
	}
	if cols&ColRegionStrings != 0 {
		blk.Region = grow(blk.Region, rows)
		for i, code := range blk.RegionID {
			blk.Region[i] = d.dict[code]
		}
	} else {
		blk.Region = blk.Region[:0]
	}

	// RTT column: raw bits.
	if len(rttSec) != rows*8 {
		return nil, fmt.Errorf("colf: block at offset %d: RTT column holds %d bytes for %d rows", bi.Off, len(rttSec), rows)
	}
	for i := 0; i < rows; i++ {
		blk.RTT[i] = math.Float64frombits(binary.LittleEndian.Uint64(rttSec[8*i:]))
	}

	// Loss bitmap: expand full bytes eight flags at a time (the stores
	// are independent, so they pipeline), then the ragged tail.
	want := (rows + 7) / 8
	if len(lostSec) != want {
		return nil, fmt.Errorf("colf: block at offset %d: loss bitmap holds %d bytes, want %d", bi.Off, len(lostSec), want)
	}
	lost := blk.Lost
	n8 := rows &^ 7
	for i := 0; i < n8; i += 8 {
		m := lostSec[i>>3]
		lost[i] = m&0x01 != 0
		lost[i+1] = m&0x02 != 0
		lost[i+2] = m&0x04 != 0
		lost[i+3] = m&0x08 != 0
		lost[i+4] = m&0x10 != 0
		lost[i+5] = m&0x20 != 0
		lost[i+6] = m&0x40 != 0
		lost[i+7] = m&0x80 != 0
	}
	for i := n8; i < rows; i++ {
		lost[i] = lostSec[i/8]&(1<<(i%8)) != 0
	}

	return blk, nil
}

// sectionBytes carves the next length-prefixed column section out of
// the payload cursor.
func sectionBytes(c *byteCursor) ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	return c.bytes(int(n))
}

// grow returns a slice of length n, reusing s's capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// internString returns a shared string for b, allocating only the
// first time a spelling is seen.
func (d *BlockDecoder) internString(b []byte) string {
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	d.intern[s] = s
	return s
}
