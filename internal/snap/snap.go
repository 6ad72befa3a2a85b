// Package snap persists merged analysis-pass state between scans so an
// append-only store can be re-analyzed at O(delta) cost: load the
// snapshot, seed the passes, decode only the bytes written since the
// snapshot's covered boundary, merge, rewrite.
//
// The file is a small versioned envelope — magic, a binding header, an
// opaque pass-state payload, and a whole-file CRC. The header carries
// everything needed to prove the snapshot is an exact prefix of the
// store it is applied to (format, covered byte/block boundary, content
// window CRCs, index/meta/pass-set fingerprints); any mismatch discards
// the snapshot and the caller falls back to a cold scan. Corruption is
// therefore never worse than a cache miss.
package snap

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrNoSnapshot reports that no snapshot file exists at the given path.
var ErrNoSnapshot = errors.New("snap: no snapshot")

// magic identifies a snapshot file; the fifth byte is the envelope
// version.
var magic = [8]byte{'S', 'N', 'A', 'P', 1, 0, 0, '\n'}

// crcTable selects the Castagnoli polynomial: snapshots checksum the
// whole multi-megabyte state on every load, and Castagnoli has a
// dedicated instruction on amd64/arm64 where the IEEE polynomial does
// not, so validation stays a small fraction of the file read itself.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Checksum is the envelope checksum other sidecar formats share (the
// temporal aggregate index guards its records with the same Castagnoli
// CRC), so every CRC-guarded companion file of a store validates with
// one polynomial.
func Checksum(b []byte) uint32 { return checksum(b) }

// Format is the header's store-encoding byte; a snapshot binds to one.
type Format uint8

// FormatBinary covers colf stores, the only kind there is: CoveredBytes
// is a block boundary and CoveredBlocks counts the blocks before it.
// Its value is the byte every written snapshot carries; a header with
// another value decodes but binds to no store.
const FormatBinary Format = 1

// Header binds a snapshot to the exact store prefix it summarizes.
type Header struct {
	// PassSet fingerprints the analysis configuration (pass-set version,
	// window geometry). State from a different pass set never applies.
	PassSet string
	// Index fingerprints the probe index the passes were seeded with.
	Index string
	// Meta fingerprints the store's campaign metadata.
	Meta string
	// Format is the store encoding the snapshot was taken from.
	Format Format
	// CoveredBytes is the store data size (bytes of sample data, not
	// counting any trailing index) the snapshot summarizes.
	CoveredBytes int64
	// CoveredBlocks is the block count before CoveredBytes.
	CoveredBlocks int
	// Samples is the number of samples folded into the state.
	Samples uint64
	// HeadCRC and TailCRC checksum the first and last WindowBytes of the
	// covered prefix, catching in-place rewrites that preserve length.
	HeadCRC uint32
	TailCRC uint32
}

func (h Header) append(b []byte) []byte {
	b = AppendString(b, h.PassSet)
	b = AppendString(b, h.Index)
	b = AppendString(b, h.Meta)
	b = append(b, byte(h.Format))
	b = AppendVarint(b, h.CoveredBytes)
	b = AppendUvarint(b, uint64(h.CoveredBlocks))
	b = AppendUvarint(b, h.Samples)
	b = AppendUint32(b, h.HeadCRC)
	b = AppendUint32(b, h.TailCRC)
	return b
}

func decodeHeader(c *Cursor) (Header, error) {
	var h Header
	var err error
	if h.PassSet, err = c.String(); err != nil {
		return h, err
	}
	if h.Index, err = c.String(); err != nil {
		return h, err
	}
	if h.Meta, err = c.String(); err != nil {
		return h, err
	}
	f, err := c.Byte()
	if err != nil {
		return h, err
	}
	if f > byte(FormatBinary) {
		return h, fmt.Errorf("snap: unknown format %d", f)
	}
	h.Format = Format(f)
	if h.CoveredBytes, err = c.Varint(); err != nil {
		return h, err
	}
	if h.CoveredBytes < 0 {
		return h, fmt.Errorf("snap: negative covered bytes %d", h.CoveredBytes)
	}
	blocks, err := c.Uvarint()
	if err != nil {
		return h, err
	}
	if blocks > uint64(h.CoveredBytes) {
		return h, fmt.Errorf("snap: %d covered blocks exceed %d covered bytes", blocks, h.CoveredBytes)
	}
	h.CoveredBlocks = int(blocks)
	if h.Samples, err = c.Uvarint(); err != nil {
		return h, err
	}
	if h.HeadCRC, err = c.Uint32(); err != nil {
		return h, err
	}
	if h.TailCRC, err = c.Uint32(); err != nil {
		return h, err
	}
	return h, nil
}

// appendHead appends everything that precedes the payload bytes: magic,
// the length-prefixed header, and the payload's length prefix.
func appendHead(b []byte, h Header, payloadLen int) []byte {
	hb := h.append(nil)
	b = append(b, magic[:]...)
	b = AppendUvarint(b, uint64(len(hb)))
	b = append(b, hb...)
	return AppendUvarint(b, uint64(payloadLen))
}

// Encode frames a header and pass-state payload into a snapshot file
// image: magic, length-prefixed header, length-prefixed payload, and a
// CRC32 over everything before it. WriteFile produces the same bytes
// without building the image; Encode is the reference tests compare it
// against.
func Encode(h Header, payload []byte) []byte {
	b := appendHead(make([]byte, 0, len(payload)+256), h, len(payload))
	b = append(b, payload...)
	return AppendUint32(b, checksum(b))
}

// Decode parses a snapshot file image, verifying magic, CRC, and that
// every byte is accounted for. The returned payload aliases data.
func Decode(data []byte) (Header, []byte, error) {
	var h Header
	if len(data) < len(magic)+4 {
		return h, nil, fmt.Errorf("snap: %d bytes is too short for a snapshot", len(data))
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return h, nil, errors.New("snap: bad magic")
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	c := NewCursor(sum)
	want, _ := c.Uint32()
	if got := checksum(body); got != want {
		return h, nil, fmt.Errorf("snap: checksum mismatch: file %08x, computed %08x", want, got)
	}
	c = NewCursor(body[len(magic):])
	hlen, err := c.Uvarint()
	if err != nil {
		return h, nil, err
	}
	if hlen > uint64(c.Remaining()) {
		return h, nil, fmt.Errorf("snap: header length %d exceeds %d remaining bytes", hlen, c.Remaining())
	}
	hb, err := c.Bytes(int(hlen))
	if err != nil {
		return h, nil, err
	}
	hc := NewCursor(hb)
	if h, err = decodeHeader(hc); err != nil {
		return h, nil, err
	}
	if hc.Remaining() != 0 {
		return h, nil, fmt.Errorf("snap: %d trailing header bytes", hc.Remaining())
	}
	plen, err := c.Uvarint()
	if err != nil {
		return h, nil, err
	}
	if plen > uint64(c.Remaining()) {
		return h, nil, fmt.Errorf("snap: payload length %d exceeds %d remaining bytes", plen, c.Remaining())
	}
	payload, err := c.Bytes(int(plen))
	if err != nil {
		return h, nil, err
	}
	if c.Remaining() != 0 {
		return h, nil, fmt.Errorf("snap: %d trailing bytes after payload", c.Remaining())
	}
	return h, payload, nil
}

// WriteFile atomically replaces path with the encoded snapshot: write
// to a temp file in the same directory, fsync, rename. A crash leaves
// either the old snapshot or the new one, never a torn file. The head,
// the payload and the trailer stream into the file under one running
// CRC, so the multi-megabyte payload is never copied into a second
// image.
func WriteFile(path string, h Header, payload []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	head := appendHead(nil, h, len(payload))
	sum := crc32.Update(checksum(head), crcTable, payload)
	for _, part := range [][]byte{head, payload, AppendUint32(nil, sum)} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile loads and decodes the snapshot at path. A missing file is
// ErrNoSnapshot; any other failure surfaces as-is for the caller to
// treat as an invalidation.
func ReadFile(path string) (Header, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Header{}, nil, ErrNoSnapshot
		}
		return Header{}, nil, err
	}
	return Decode(data)
}

// Fingerprint derives a compact identity for a store prefix from the
// same evidence a snapshot header binds to: the covered byte boundary,
// the sample count, and the head/tail content-window CRCs. Two prefixes
// with equal fingerprints carry the same analysis state for practical
// purposes, which is what cache keys and HTTP ETags need — the serving
// layer stamps every response with the fingerprint of the snapshot
// that produced it.
func Fingerprint(covered int64, samples uint64, head, tail uint32) string {
	return fmt.Sprintf("%x-%x-%08x%08x", covered, samples, head, tail)
}

// WindowBytes is the size of the head and tail content windows hashed
// into the header. Two 64 KiB reads bound validation cost regardless of
// store size while still catching same-length rewrites at either end.
const WindowBytes = 64 << 10

// WindowCRCs checksums the first and last WindowBytes of the covered
// prefix [0, covered) of r.
func WindowCRCs(r io.ReaderAt, covered int64) (head, tail uint32, err error) {
	window := func(off, n int64) (uint32, error) {
		buf := make([]byte, n)
		if _, err := r.ReadAt(buf, off); err != nil {
			return 0, err
		}
		return checksum(buf), nil
	}
	n := covered
	if n > WindowBytes {
		n = WindowBytes
	}
	if head, err = window(0, n); err != nil {
		return 0, 0, err
	}
	if tail, err = window(covered-n, n); err != nil {
		return 0, 0, err
	}
	return head, tail, nil
}
