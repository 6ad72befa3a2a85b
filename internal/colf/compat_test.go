package colf

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
	"unsafe"
)

// encodeRowsV1 hand-encodes rows exactly as the format v1 writer did:
// version-1 header byte, v1-only zone footers (no aggregate
// extension), and a v1 index whose zones are concatenated without
// length prefixes. It builds testdata/v1.colf, the fixture every entry
// point must refuse (cmd/dataset TestV1StoreRefused).
func encodeRowsV1(t testing.TB, rows []Row, blockRows int) []byte {
	t.Helper()
	out := []byte{'C', 'O', 'L', 'F', 1, 0, 0, '\n'}
	var blocks []BlockInfo
	for start := 0; start < len(rows); start += blockRows {
		end := start + blockRows
		if end > len(rows) {
			end = len(rows)
		}
		chunk := rows[start:end]

		var payload, sec []byte
		prev := int64(0)
		for _, r := range chunk {
			sec = appendVarint(sec, int64(r.Probe)-prev)
			prev = int64(r.Probe)
		}
		payload = appendSection(payload, sec)
		sec, prev = sec[:0], 0
		for _, r := range chunk {
			sec = appendVarint(sec, r.TimeNano-prev)
			prev = r.TimeNano
		}
		payload = appendSection(payload, sec)
		sec = sec[:0]
		dict := map[string]uint64{}
		var entries []string
		for _, r := range chunk {
			if _, ok := dict[r.Region]; !ok {
				dict[r.Region] = uint64(len(entries))
				entries = append(entries, r.Region)
			}
		}
		sec = appendUvarint(sec, uint64(len(entries)))
		for _, e := range entries {
			sec = appendUvarint(sec, uint64(len(e)))
			sec = append(sec, e...)
		}
		for _, r := range chunk {
			sec = appendUvarint(sec, dict[r.Region])
		}
		payload = appendSection(payload, sec)
		sec = sec[:0]
		for _, r := range chunk {
			sec = appendFloatBits(sec, r.RTT)
		}
		payload = appendSection(payload, sec)
		sec = sec[:0]
		sec = append(sec, make([]byte, (len(chunk)+7)/8)...)
		for i, r := range chunk {
			if r.Lost {
				sec[i/8] |= 1 << (i % 8)
			}
		}
		payload = appendSection(payload, sec)

		var zone Zone
		for _, r := range chunk {
			zone.observe(r)
		}
		zoneBytes := appendZoneV1(zone)

		bodyLen := len(payload) + len(zoneBytes) + 4
		var head [8]byte
		binary.LittleEndian.PutUint32(head[0:4], uint32(bodyLen))
		binary.LittleEndian.PutUint32(head[4:8], uint32(len(payload)))
		crc := crc32.ChecksumIEEE(head[4:8])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		crc = crc32.Update(crc, crc32.IEEETable, zoneBytes)
		off := int64(len(out))
		out = append(out, head[:]...)
		out = append(out, payload...)
		out = append(out, zoneBytes...)
		out = binary.LittleEndian.AppendUint32(out, crc)
		blocks = append(blocks, BlockInfo{Off: off, Len: int64(8 + bodyLen), Zone: zone})
	}

	// v1 index: zones concatenated, v1 trailer magic.
	idx := appendUvarint(nil, uint64(len(blocks)))
	prevOff := int64(0)
	for _, b := range blocks {
		idx = appendUvarint(idx, uint64(b.Off-prevOff))
		idx = appendUvarint(idx, uint64(b.Len))
		idx = append(idx, appendZoneV1(b.Zone)...)
		prevOff = b.Off
	}
	out = append(out, idx...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(idx)))
	out = append(out, 'C', 'I', 'D', 'X', 1, 0, 0, '\n')
	return out
}

// appendZoneV1 encodes z's column bounds as v1 did. A v2 zone without a
// region list is those bounds followed by the extension: one flags byte
// and, when some row was delivered, the RTT sum's eight bytes.
func appendZoneV1(z Zone) []byte {
	z.Regions = nil
	ext := 1
	if z.Delivered > 0 {
		ext += 8
	}
	b := appendZone(nil, z)
	return b[:len(b)-ext]
}

// v1Fixture is the committed v1 store the refusal tests read.
const v1Fixture = "testdata/v1.colf"

// TestV1FixtureMatchesBuilder pins the committed fixture to the
// builder, so the store the refusal tests read is a v1 file by
// construction.
func TestV1FixtureMatchesBuilder(t *testing.T) {
	got, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeRowsV1(t, genRows(100), 32); !bytes.Equal(got, want) {
		t.Fatalf("%s (%d bytes) differs from encodeRowsV1's %d bytes", v1Fixture, len(got), len(want))
	}
}

// TestZoneV2IndexRoundTrip pins that the index and footer paths decode
// identical zones, aggregates included.
func TestZoneV2IndexRoundTrip(t *testing.T) {
	rows := genRows(400)
	file, _ := encodeRows(t, rows, 100)
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	walked, _, err := walk(bytes.NewReader(file), HeaderSize, fileDataEnd(t, file))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Blocks(), walked) {
		t.Fatalf("index blocks %+v\nfooter blocks %+v", r.Blocks(), walked)
	}
	for i, b := range r.Blocks() {
		z := b.Zone
		if len(z.Regions) == 0 {
			t.Fatalf("block %d missing aggregates: %+v", i, z)
		}
		var sum float64
		var delivered int
		for _, rz := range z.Regions {
			sum += rz.RTTSum
			delivered += rz.Delivered
		}
		if delivered != z.Delivered {
			t.Errorf("block %d: region delivered %d, zone %d", i, delivered, z.Delivered)
		}
	}
}

func fileDataEnd(t testing.TB, file []byte) int64 {
	t.Helper()
	idxLen := int64(binary.LittleEndian.Uint32(file[len(file)-indexTrailerSize:]))
	return int64(len(file)) - indexTrailerSize - idxLen
}

// TestRegionInterningAcrossBlocks scans a store whose dictionary
// changes from block to block and pins that one decoder hands back
// canonical strings: equal spellings are pointer-equal across blocks,
// and the dictionary view agrees with the string column.
func TestRegionInterningAcrossBlocks(t *testing.T) {
	regionSets := [][]string{
		{"Amazon/eu-north-1", "Google/us-west2"},
		{"Google/us-west2", "Azure/eastus"},       // overlaps block 0
		{"Azure/eastus", "Amazon/eu-north-1"},     // dict order flipped vs earlier blocks
		{"Cloud/x", "Cloud/y", "Cloud/z"},         // all-new entries
		{"Amazon/eu-north-1", "Cloud/z", "new/r"}, // mix of old and new
	}
	var rows []Row
	for b, set := range regionSets {
		for i := 0; i < 16; i++ {
			rows = append(rows, Row{
				Probe:    1 + i,
				TimeNano: int64(b*16+i) * 1e9,
				Region:   set[i%len(set)],
				RTT:      float64(10 + i),
			})
		}
	}
	file, _ := encodeRows(t, rows, 16)
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Blocks()) != len(regionSets) {
		t.Fatalf("%d blocks, want %d", len(r.Blocks()), len(regionSets))
	}
	canonical := map[string]*byte{} // spelling -> data pointer of first sighting
	dec := NewBlockDecoder()
	for bi, info := range r.Blocks() {
		blk, err := dec.Decode(bytes.NewReader(file), info)
		if err != nil {
			t.Fatal(err)
		}
		if len(blk.Dict) != len(regionSets[bi]) {
			t.Fatalf("block %d dictionary %v, want %v", bi, blk.Dict, regionSets[bi])
		}
		for i := range blk.Region {
			if got, want := blk.Region[i], blk.Dict[blk.RegionID[i]]; got != want {
				t.Fatalf("block %d row %d: Region %q != Dict[RegionID] %q", bi, i, got, want)
			}
		}
		for _, s := range blk.Dict {
			ptr := unsafe.StringData(s)
			if first, ok := canonical[s]; !ok {
				canonical[s] = ptr
			} else if first != ptr {
				t.Errorf("block %d: %q re-allocated instead of interned", bi, s)
			}
		}
	}
	// Every spelling ever written must have been seen.
	for _, set := range regionSets {
		for _, s := range set {
			if _, ok := canonical[s]; !ok {
				t.Errorf("region %q never surfaced in a dictionary", s)
			}
		}
	}
}

// TestDecodeColsSkipsColumns pins the projection contract: skipped
// columns come back empty, kept columns match a full decode.
func TestDecodeColsSkipsColumns(t *testing.T) {
	rows := genRows(200)
	file, _ := encodeRows(t, rows, 64)
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	full := NewBlockDecoder()
	ids := NewBlockDecoder()
	proj := NewBlockDecoder()
	for _, bi := range r.Blocks() {
		want, err := full.Decode(bytes.NewReader(file), bi)
		if err != nil {
			t.Fatal(err)
		}
		// ColRegionIDs: dictionary and codes decode, no string fill.
		got, err := ids.DecodeCols(bytes.NewReader(file), bi, ColRegionIDs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.TimeNano) != 0 || len(got.Region) != 0 {
			t.Fatalf("skipped columns materialized: %d times, %d regions", len(got.TimeNano), len(got.Region))
		}
		if !reflect.DeepEqual(got.Probe, want.Probe) || !reflect.DeepEqual(got.RTT, want.RTT) ||
			!reflect.DeepEqual(got.Lost, want.Lost) || !reflect.DeepEqual(got.RegionID, want.RegionID) ||
			!reflect.DeepEqual(got.Dict, want.Dict) {
			t.Fatal("projected decode disagrees with full decode")
		}
		// The empty set: only the always-decoded validation columns.
		bare, err := proj.DecodeCols(bytes.NewReader(file), bi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(bare.TimeNano) != 0 || len(bare.Region) != 0 || len(bare.RegionID) != 0 || bare.Dict != nil {
			t.Fatalf("empty column set materialized optional columns: %d times, %d regions, %d ids, dict %v",
				len(bare.TimeNano), len(bare.Region), len(bare.RegionID), bare.Dict)
		}
		if !reflect.DeepEqual(bare.Probe, want.Probe) || !reflect.DeepEqual(bare.RTT, want.RTT) ||
			!reflect.DeepEqual(bare.Lost, want.Lost) {
			t.Fatal("bare decode disagrees with full decode")
		}
	}
}
