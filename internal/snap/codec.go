package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Codec primitives shared by every record payload: varints for counts
// and identifiers, raw IEEE-754 bits for floats (so accumulator state
// round-trips bitwise), length-prefixed strings, and a bounds-checked
// Cursor for decoding. Higher layers (stats, core, tix) compose these
// into per-aggregate state codecs.

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v in zig-zag varint encoding.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendFloat appends v's exact IEEE-754 bits, little-endian. Encoding
// bits rather than a decimal rendering is what keeps resumed float
// folds bitwise identical to cold ones.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendUint32 appends v little-endian.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Cursor reads the primitive encodings back with bounds checking; every
// decode error identifies the failing offset.
type Cursor struct {
	b   []byte
	off int
}

// NewCursor wraps b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Remaining returns the undecoded byte count.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

// uvarintLen is the length of ux's shortest varint encoding.
func uvarintLen(ux uint64) int { return (bits.Len64(ux|1) + 6) / 7 }

// Uvarint decodes one unsigned varint. Only the shortest encoding is
// accepted: a padded one decodes to the same value but re-encodes to
// other bytes, and a decoded record must re-encode to the bytes it was
// read from.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 || n != uvarintLen(v) {
		return 0, fmt.Errorf("snap: corrupt uvarint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// Varint decodes one zig-zag varint, shortest encoding only.
func (c *Cursor) Varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 || n != uvarintLen(uint64(v<<1)^uint64(v>>63)) {
		return 0, fmt.Errorf("snap: corrupt varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// Float decodes one raw-bits float64.
func (c *Cursor) Float() (float64, error) {
	if c.Remaining() < 8 {
		return 0, fmt.Errorf("snap: truncated float at offset %d", c.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v, nil
}

// Uint32 decodes one little-endian uint32.
func (c *Cursor) Uint32() (uint32, error) {
	if c.Remaining() < 4 {
		return 0, fmt.Errorf("snap: truncated uint32 at offset %d", c.off)
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

// Byte decodes one byte.
func (c *Cursor) Byte() (byte, error) {
	if c.Remaining() < 1 {
		return 0, fmt.Errorf("snap: truncated byte at offset %d", c.off)
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

// Bool decodes one byte written by AppendBool, rejecting values other
// than 0 and 1.
func (c *Cursor) Bool() (bool, error) {
	v, err := c.Byte()
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, fmt.Errorf("snap: bad bool byte %d at offset %d", v, c.off-1)
	}
	return v == 1, nil
}

// Bytes consumes the next n bytes. The returned slice aliases the
// cursor's buffer.
func (c *Cursor) Bytes(n int) ([]byte, error) {
	if n < 0 || c.Remaining() < n {
		return nil, fmt.Errorf("snap: %d bytes wanted at offset %d, %d remain", n, c.off, c.Remaining())
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v, nil
}

// String decodes one length-prefixed string.
func (c *Cursor) String() (string, error) {
	n, err := c.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(c.Remaining()) {
		return "", fmt.Errorf("snap: string of %d bytes at offset %d, %d remain", n, c.off, c.Remaining())
	}
	raw, err := c.Bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(raw), nil
}
