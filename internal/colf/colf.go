// Package colf is the binary columnar block format for campaign
// datasets (samples.bin). Samples are grouped into fixed-size blocks
// (DefaultBlockRows rows); inside a block every column is encoded
// independently — varint deltas for probe IDs and timestamps,
// dictionary codes for region addresses, raw IEEE-754 bits for RTTs so
// round-trips are lossless, and a bitmap for the loss flags. Each block
// carries a footer with its row count, a CRC32 over the encoded bytes,
// and per-column min/max zone maps; a file-level block index at the
// tail lets readers locate and skip blocks without touching their
// payloads.
//
// The format is append-friendly: blocks are self-contained (every
// delta chain restarts per block), so a writer can flush a partial
// block at a checkpoint and the resulting file prefix is a valid
// sequence of blocks. Resume truncates to a block boundary and keeps
// appending; the index is (re)written on Finish and rebuilt from block
// footers when missing.
//
// Reading is one decision: Locate finds the blocks (from the index, or
// by walking the block chain), a BlockDecoder decodes them, and every
// byte arrives through positional io.ReaderAt reads. Only format
// version 2 reads; any other version is refused at every entry point.
//
// colf deliberately knows nothing about the results package: it moves
// Rows, and the dataset layer converts. That keeps the dependency
// arrow pointing one way (results -> colf) while both scan and results
// share the codec.
package colf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Row is one decoded sample in colf's terms. TimeNano is nanoseconds
// since the Unix epoch (UTC); RTT carries the exact float64 bits the
// writer was given.
type Row struct {
	Probe    int
	TimeNano int64
	Region   string
	RTT      float64
	Lost     bool
}

// DefaultBlockRows is the target rows-per-block. ~8K rows keep blocks
// around 100 KiB encoded: big enough to amortize per-block overhead,
// small enough that zone-map skipping has useful granularity.
const DefaultBlockRows = 8192

// HeaderSize is the fixed file header length.
const HeaderSize = 8

// header is the file magic: "COLF", format version, reserved bytes.
// Version 2 carries zone footers with pre-aggregates (delivered-RTT
// sum, per-region row ranges) and length-prefixed index entries.
var header = [HeaderSize]byte{'C', 'O', 'L', 'F', 2, 0, 0, '\n'}

// indexMagic trails the file-level block index; its presence at EOF is
// how readers find the index without scanning. Its version byte matches
// the header's.
var indexMagic = [8]byte{'C', 'I', 'D', 'X', 2, 0, 0, '\n'}

// indexTrailerSize is the fixed tail after the index body: a u32
// little-endian body length plus the index magic.
const indexTrailerSize = 4 + 8

// maxBlockBytes bounds a single encoded block body. Real blocks are
// ~100 KiB; the cap exists so a corrupted length field cannot drive a
// reader into a multi-gigabyte allocation.
const maxBlockBytes = 1 << 28

// checkMagic reports whether got begins with want's magic, the version
// byte at offset 4 aside. A magic of another format version is refused
// with the one error that names the version, whichever entry point
// reads it.
func checkMagic(got []byte, want [8]byte) (bool, error) {
	if len(got) < len(want) || !bytes.Equal(got[:4], want[:4]) || !bytes.Equal(got[5:len(want)], want[5:]) {
		return false, nil
	}
	if v := got[4]; v != want[4] {
		return true, fmt.Errorf("colf: format version %d is not readable; only version %d is", v, want[4])
	}
	return true, nil
}

// BlockInfo locates one block and carries its zone map.
type BlockInfo struct {
	// Off is the file offset of the block's length header.
	Off int64
	// Len is the full encoded block length, length fields included.
	Len int64
	// Zone is the block's per-column min/max summary.
	Zone Zone
}

// appendUvarint / appendVarint are thin wrappers so call sites read as
// the format spec does.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

// appendFloatBits appends the raw little-endian IEEE-754 bits.
func appendFloatBits(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// byteCursor is a bounds-checked forward reader over an encoded
// region; every decode path goes through it so corrupt inputs surface
// as errors instead of panics.
type byteCursor struct {
	b   []byte
	off int
}

func (c *byteCursor) remaining() int { return len(c.b) - c.off }

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("colf: truncated uvarint at byte %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("colf: truncated varint at byte %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) floatBits() (float64, error) {
	if c.remaining() < 8 {
		return 0, fmt.Errorf("colf: truncated float at byte %d", c.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v, nil
}

func (c *byteCursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, fmt.Errorf("colf: truncated field of %d bytes at byte %d", n, c.off)
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}
