package colf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Writer appends rows to a colf stream. Rows buffer in columnar form
// until a block fills (or Flush is called), then the block encodes and
// writes out in one piece. Writes are unbuffered beyond the current
// block — a flushed prefix is always a valid block sequence, which is
// what makes block-aligned checkpoint offsets work.
//
// Lifecycle: Write*, optionally Flush at durability points, then
// Finish exactly once to append the file-level block index. A Writer
// is not safe for concurrent use.
type Writer struct {
	w          io.Writer
	base       int64  // file offset where this writer started appending
	written    uint64 // bytes this writer pushed to w (header included)
	n          uint64 // rows accepted
	blockRows  int
	headerDone bool
	finished   bool

	// Column builders for the open block.
	probes      []int64
	times       []int64
	regionCodes []uint32
	rtts        []float64
	lost        []bool
	dict        map[string]uint32
	dictEntries []string
	zone        Zone

	blocks []BlockInfo

	// Encode scratch, reused across blocks.
	payload, sec, zoneBuf []byte
}

// NewWriter starts a fresh colf stream on w; the file header is
// written ahead of the first block.
func NewWriter(w io.Writer) *Writer { return NewWriterAt(w, 0, nil) }

// NewWriterAt continues an existing stream: w must be positioned at
// byte offset base of the file (a block boundary), and existing lists
// the blocks already on disk before base so Finish can index the whole
// file. base 0 with no existing blocks is a fresh stream.
func NewWriterAt(w io.Writer, base int64, existing []BlockInfo) *Writer {
	return &Writer{
		w:          w,
		base:       base,
		blockRows:  DefaultBlockRows,
		headerDone: base > 0,
		dict:       make(map[string]uint32),
		blocks:     append([]BlockInfo(nil), existing...),
	}
}

// SetBlockRows overrides the rows-per-block target. It only takes
// effect before the first row is written; later calls are ignored.
func (w *Writer) SetBlockRows(n int) {
	if n > 0 && w.n == 0 && w.zone.Rows == 0 {
		w.blockRows = n
	}
}

// Write buffers one row, flushing a block when it fills.
func (w *Writer) Write(r Row) error {
	if w.finished {
		return errors.New("colf: write after Finish")
	}
	code, ok := w.dict[r.Region]
	if !ok {
		code = uint32(len(w.dictEntries))
		w.dict[r.Region] = code
		w.dictEntries = append(w.dictEntries, r.Region)
	}
	w.probes = append(w.probes, int64(r.Probe))
	w.times = append(w.times, r.TimeNano)
	w.regionCodes = append(w.regionCodes, code)
	w.rtts = append(w.rtts, r.RTT)
	w.lost = append(w.lost, r.Lost)
	w.zone.observe(r)
	w.n++
	if w.zone.Rows >= w.blockRows {
		return w.flushBlock()
	}
	return nil
}

// Flush encodes and writes the open partial block, if any. After a
// successful Flush, BytesWritten is a block boundary — the offsets
// checkpoints are made of.
func (w *Writer) Flush() error {
	if w.finished {
		return nil
	}
	return w.flushBlock()
}

// Finish flushes the open block and appends the file-level block
// index. The Writer accepts no rows afterwards.
func (w *Writer) Finish() error {
	if w.finished {
		return nil
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	w.finished = true
	// v2 index: zones are length-prefixed so the entry stream stays
	// parseable as the zone encoding grows (v1 concatenated them, which
	// made any zone extension ambiguous mid-stream).
	idx := w.payload[:0]
	idx = appendUvarint(idx, uint64(len(w.blocks)))
	prevOff := int64(0)
	for _, b := range w.blocks {
		idx = appendUvarint(idx, uint64(b.Off-prevOff))
		idx = appendUvarint(idx, uint64(b.Len))
		zb := appendZone(w.zoneBuf[:0], b.Zone)
		idx = appendUvarint(idx, uint64(len(zb)))
		idx = append(idx, zb...)
		prevOff = b.Off
	}
	var trailer [indexTrailerSize]byte
	binary.LittleEndian.PutUint32(trailer[:4], uint32(len(idx)))
	binary.LittleEndian.PutUint32(trailer[4:8], crc32.Checksum(idx, indexCRC))
	copy(trailer[8:], indexMagic[:])
	return w.writeAll(idx, trailer[:])
}

// Count returns the number of rows accepted.
func (w *Writer) Count() uint64 { return w.n }

// BytesWritten returns the bytes this writer pushed to the underlying
// writer: the header (fresh streams) plus every flushed block, and the
// index once Finish ran. Buffered rows of the open block don't count —
// they aren't on disk yet.
func (w *Writer) BytesWritten() uint64 { return w.written }

func (w *Writer) ensureHeader() error {
	if w.headerDone {
		return nil
	}
	w.headerDone = true
	return w.writeAll(header[:])
}

// flushBlock encodes the buffered columns as one block and writes it.
func (w *Writer) flushBlock() error {
	if w.zone.Rows == 0 {
		return nil
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	payload := w.payload[:0]

	// Probe IDs: varint deltas, chain restarting at 0 each block.
	sec := w.sec[:0]
	prev := int64(0)
	for _, p := range w.probes {
		sec = appendVarint(sec, p-prev)
		prev = p
	}
	payload = appendSection(payload, sec)

	// Timestamps: varint deltas of Unix nanos, same restart rule.
	sec = sec[:0]
	prev = 0
	for _, t := range w.times {
		sec = appendVarint(sec, t-prev)
		prev = t
	}
	payload = appendSection(payload, sec)

	// Regions: first-appearance dictionary, then one code per row.
	sec = sec[:0]
	sec = appendUvarint(sec, uint64(len(w.dictEntries)))
	for _, e := range w.dictEntries {
		sec = appendUvarint(sec, uint64(len(e)))
		sec = append(sec, e...)
	}
	for _, c := range w.regionCodes {
		sec = appendUvarint(sec, uint64(c))
	}
	payload = appendSection(payload, sec)

	// RTTs: raw IEEE-754 bits so round-trips are exact.
	sec = sec[:0]
	for _, v := range w.rtts {
		sec = appendFloatBits(sec, v)
	}
	payload = appendSection(payload, sec)

	// Loss flags: bitmap, LSB-first within each byte.
	sec = sec[:0]
	sec = append(sec, make([]byte, (len(w.lost)+7)/8)...)
	for i, l := range w.lost {
		if l {
			sec[i/8] |= 1 << (i % 8)
		}
	}
	payload = appendSection(payload, sec)

	zoneBytes := appendZone(w.zoneBuf[:0], w.zone)
	bodyLen := len(payload) + len(zoneBytes) + 4
	if bodyLen > maxBlockBytes {
		return fmt.Errorf("colf: block of %d bytes exceeds format cap", bodyLen)
	}
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(bodyLen))
	binary.LittleEndian.PutUint32(head[4:8], uint32(len(payload)))
	// The CRC covers the payload-length field, the payload, and the zone
	// footer: any single corrupted byte past the outer length field is
	// detected at decode time.
	crc := crc32.ChecksumIEEE(head[4:8])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	crc = crc32.Update(crc, crc32.IEEETable, zoneBytes)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc)

	off := w.base + int64(w.written)
	if err := w.writeAll(head[:], payload, zoneBytes, crcBuf[:]); err != nil {
		return err
	}
	w.blocks = append(w.blocks, BlockInfo{Off: off, Len: int64(8 + bodyLen), Zone: w.zone})

	// Reset the open block; keep capacity and scratch.
	w.payload, w.sec = payload[:0], sec[:0]
	w.probes = w.probes[:0]
	w.times = w.times[:0]
	w.regionCodes = w.regionCodes[:0]
	w.rtts = w.rtts[:0]
	w.lost = w.lost[:0]
	w.dictEntries = w.dictEntries[:0]
	clear(w.dict)
	w.zone = Zone{}
	return nil
}

// appendSection appends one length-prefixed column section.
func appendSection(dst, sec []byte) []byte {
	dst = appendUvarint(dst, uint64(len(sec)))
	return append(dst, sec...)
}

// writeAll pushes the given byte slices to the underlying writer,
// crediting written bytes as they land.
func (w *Writer) writeAll(bufs ...[]byte) error {
	for _, b := range bufs {
		n, err := w.w.Write(b)
		w.written += uint64(n)
		if err != nil {
			return err
		}
	}
	return nil
}
