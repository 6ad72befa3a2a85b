package colf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzBlockRoundTrip drives the writer with fuzz-derived rows and
// checks four properties: encode→decode is the identity (exact float
// bits included), the index and footer-rebuild paths agree, a single
// corrupted data byte is always rejected — never a panic, never
// silently wrong rows — and the block walk's two policies hold at
// every cut of the index-less stream (see checkCut).
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(1), uint16(3))
	f.Add(bytes.Repeat([]byte{0xFF, 0x00, 0x7A}, 40), uint8(3), uint16(55))
	// Dictionary edge cases: region bytes that vary per row so every row
	// mints a fresh dict entry (dict size == rows, the format's cap), and
	// a corruption offset that tends to land in the dict/codes section.
	dictHeavy := make([]byte, 0, 16*13)
	for i := 0; i < 16; i++ {
		dictHeavy = append(dictHeavy, byte(i), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 6, byte('a'+i))
	}
	f.Add(dictHeavy, uint8(7), uint16(90))
	// Empty-string regions mixed with one-byte ones: exercises dict code
	// 0 reuse and the zero-length intern path.
	f.Add(bytes.Repeat([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0x80, 1, 'z'}, 12), uint8(2), uint16(140))
	f.Fuzz(func(t *testing.T, raw []byte, blockRows uint8, corruptAt uint16) {
		rows := rowsFromBytes(raw)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.SetBlockRows(int(blockRows%8) + 1)
		for i, r := range rows {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
			if i%5 == 2 { // exercise partial-block checkpoint flushes
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		dataLen := int64(w.BytesWritten())
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		file := buf.Bytes()

		for _, variant := range [][]byte{file, file[:dataLen]} {
			r, err := NewReader(bytes.NewReader(variant), int64(len(variant)))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			var got []Row
			if err := r.ForEachRow(func(row Row) error { got = append(got, row); return nil }); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(rows) {
				t.Fatalf("%d rows decoded, %d written", len(got), len(rows))
			}
			for i := range rows {
				a, b := rows[i], got[i]
				if a.Probe != b.Probe || a.TimeNano != b.TimeNano || a.Region != b.Region ||
					math.Float64bits(a.RTT) != math.Float64bits(b.RTT) || a.Lost != b.Lost {
					t.Fatalf("row %d: wrote %+v, read %+v", i, a, b)
				}
			}
		}

		// Cut leg: up to 64 fuzz-placed offsets past the header, each also
		// snapped back to the block boundary before it, and the whole
		// stream. A stream of no rows has no header to cut past.
		if dataLen >= HeaderSize {
			idx, err := NewReader(bytes.NewReader(file), int64(len(file)))
			if err != nil {
				t.Fatal(err)
			}
			step := 1 + (dataLen-HeaderSize)/64
			for cut := HeaderSize + int64(corruptAt)%step; cut <= dataLen; cut += step {
				if stable := checkCut(t, file[:dataLen], idx.Blocks(), cut); stable != cut {
					checkCut(t, file[:dataLen], idx.Blocks(), stable)
				}
			}
			checkCut(t, file[:dataLen], idx.Blocks(), dataLen)
		}

		// Single-byte corruption anywhere in the CRC-protected data region
		// must surface an error (readers may also legitimately error while
		// indexing); it must never decode successfully or panic.
		if dataLen > HeaderSize {
			off := HeaderSize + int64(corruptAt)%(dataLen-HeaderSize)
			mut := append([]byte(nil), file...)
			mut[off] ^= 1 << (corruptAt % 8)
			if mut[off] == file[off] {
				mut[off] ^= 0xFF
			}
			r, err := NewReader(bytes.NewReader(mut), int64(len(mut)))
			if err == nil {
				err = r.ForEachRow(func(Row) error { return nil })
			}
			if err == nil {
				t.Fatalf("corruption at byte %d went unnoticed", off)
			}
		}
	})
}

// checkCut cuts the index-less stream data at cut — what a live
// appender or a crash leaves behind — and checks the walk's two
// policies against the stream's blocks. The live locator returns
// exactly the blocks that end at or before the cut, with the last one's
// end as the stable end, and flags ErrTorn when bytes lie past it. The
// strict readers (a cold open, BlocksTo) fail if and only if the cut
// is not a block boundary. It returns the stable end.
func checkCut(t *testing.T, data []byte, blocks []BlockInfo, cut int64) int64 {
	t.Helper()
	var want []BlockInfo
	stable := int64(HeaderSize)
	for _, b := range blocks {
		if b.Off+b.Len <= cut {
			want = append(want, b)
			stable = b.Off + b.Len
		}
	}
	r := bytes.NewReader(data[:cut])
	got, end, err := Locate(r, cut, HeaderSize)
	if err != nil && !errors.Is(err, ErrTorn) {
		t.Fatalf("cut %d: locate: %v", cut, err)
	}
	if (err != nil) != (stable != cut) {
		t.Fatalf("cut %d: locate err %v with stable end %d", cut, err, stable)
	}
	if end != stable || len(got) != len(want) {
		t.Fatalf("cut %d: located %d blocks ending at %d, want %d ending at %d", cut, len(got), end, len(want), stable)
	}
	for i, b := range got {
		// Zones compare encoded: a NaN bound is not equal to itself.
		if b.Off != want[i].Off || b.Len != want[i].Len || !bytes.Equal(appendZone(nil, b.Zone), appendZone(nil, want[i].Zone)) {
			t.Fatalf("cut %d: block %d located as %+v, indexed as %+v", cut, i, b, want[i])
		}
	}
	_, openErr := NewReader(r, cut)
	_, toErr := BlocksTo(bytes.NewReader(data), cut)
	for name, err := range map[string]error{"cold open": openErr, "BlocksTo": toErr} {
		if (err != nil) != (stable != cut) {
			t.Fatalf("cut %d (stable end %d): %s err = %v", cut, stable, name, err)
		}
	}
	return stable
}

// rowsFromBytes deterministically derives a row stream from fuzz
// bytes, 12 bytes per row, covering negative values, NaNs and
// arbitrary region bytes.
func rowsFromBytes(raw []byte) []Row {
	var rows []Row
	for len(raw) >= 12 {
		chunk := raw[:12]
		raw = raw[12:]
		regionLen := int(chunk[11] % 7)
		if regionLen > len(raw) {
			regionLen = len(raw)
		}
		rows = append(rows, Row{
			Probe:    int(int16(binary.LittleEndian.Uint16(chunk[0:2]))),
			TimeNano: int64(binary.LittleEndian.Uint32(chunk[2:6]))*1e6 - 1e12,
			Region:   string(raw[:regionLen]),
			RTT:      math.Float64frombits(binary.LittleEndian.Uint64(chunk[3:11])),
			Lost:     chunk[11]&0x80 != 0,
		})
		raw = raw[regionLen:]
	}
	return rows
}
