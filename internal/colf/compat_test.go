package colf

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
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
		if b.Zone.Delivered > 0 && b.Zone.RTTSum == 0 {
			t.Errorf("block %d missing its RTT sum: %+v", i, b.Zone)
		}
	}
}

// regionEntry is one entry of the per-region aggregate list that zones
// written before the list was dropped carry.
type regionEntry struct {
	region                 string
	first, rows, delivered uint64
}

// appendZoneWithList encodes z as the earlier writer did when a block's
// dictionary fit the list: the regions flag set and the list after the
// RTT sum.
func appendZoneWithList(z Zone, list []regionEntry) []byte {
	b := appendZone(nil, z)
	tail := 0
	if z.Delivered > 0 {
		tail = 8
	}
	b[len(b)-tail-1] |= zoneFlagRegions
	b = appendUvarint(b, uint64(len(list)))
	for _, e := range list {
		b = appendUvarint(b, uint64(len(e.region)))
		b = append(b, e.region...)
		b = appendUvarint(b, e.first)
		b = appendUvarint(b, e.rows)
		b = appendUvarint(b, e.delivered)
		if e.delivered > 0 {
			b = appendFloatBits(b, 1.5)
		}
	}
	return b
}

// TestZoneRegionListReadPast pins that a zone carrying the per-region
// list decodes to the zone without it, and that the list must still
// tile the zone's rows and delivered rows.
func TestZoneRegionListReadPast(t *testing.T) {
	var z Zone
	for _, r := range genRows(10) {
		z.observe(r)
	}
	good := []regionEntry{{"a", 0, 6, 0}, {"b", 1, 4, 0}}
	good[0].delivered = uint64(min(z.Delivered, 6))
	good[1].delivered = uint64(z.Delivered) - good[0].delivered
	got, err := decodeZone(&byteCursor{b: appendZoneWithList(z, good)})
	if err != nil || !reflect.DeepEqual(got, z) {
		t.Fatalf("zone with list decoded to %+v, %v; want %+v", got, err, z)
	}
	short := append([]regionEntry(nil), good...)
	short[1].rows--
	for name, list := range map[string][]regionEntry{
		"rows short":  short,
		"empty":       nil,
		"first past":  {{"a", 10, 10, uint64(z.Delivered)}},
		"over rows":   {{"a", 0, 11, uint64(z.Delivered)}},
		"delivered>n": {{"a", 0, 10, 11}},
	} {
		if _, err := decodeZone(&byteCursor{b: appendZoneWithList(z, list)}); err == nil {
			t.Errorf("%s: list accepted", name)
		}
	}
}

// TestIndexTrailerVersions pins how each index trailer reads: version
// 3 is checked against its CRC-32C, a version-2 trailer (no checksum)
// reads as no index so the block chain up to it is walked, and any
// other version is refused.
func TestIndexTrailerVersions(t *testing.T) {
	file, dataLen := encodeRows(t, genRows(300), 64)
	want, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	idxLen := len(file) - int(dataLen) - indexTrailerSize

	// The same index under the 12-byte version-2 trailer.
	legacy := append([]byte(nil), file[:int(dataLen)+idxLen]...)
	legacy = binary.LittleEndian.AppendUint32(legacy, uint32(idxLen))
	legacy = append(legacy, 'C', 'I', 'D', 'X', legacyIndexVersion, 0, 0, '\n')
	got, err := NewReader(bytes.NewReader(legacy), int64(len(legacy)))
	if err != nil || !reflect.DeepEqual(got.Blocks(), want.Blocks()) {
		t.Errorf("version-2 trailer: %v, blocks %+v; want %+v", err, got, want.Blocks())
	}

	bad := append([]byte(nil), file...)
	bad[dataLen+1] ^= 0x01 // inside the index body
	if _, err := NewReader(bytes.NewReader(bad), int64(len(bad))); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("damaged index: err = %v, want a CRC error", err)
	}
	bad = append([]byte(nil), file...)
	bad[len(bad)-4] = 4
	if _, err := NewReader(bytes.NewReader(bad), int64(len(bad))); err == nil || !strings.Contains(err.Error(), "version 4 is not readable") {
		t.Errorf("version-4 trailer: err = %v", err)
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
		// ColRegionIDs: dictionary and codes decode, no timestamps.
		got, err := ids.DecodeCols(bytes.NewReader(file), bi, ColRegionIDs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.TimeNano) != 0 {
			t.Fatalf("skipped column materialized: %d times", len(got.TimeNano))
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
		if len(bare.TimeNano) != 0 || len(bare.RegionID) != 0 || bare.Dict != nil {
			t.Fatalf("empty column set materialized optional columns: %d times, %d ids, dict %v",
				len(bare.TimeNano), len(bare.RegionID), bare.Dict)
		}
		if !reflect.DeepEqual(bare.Probe, want.Probe) || !reflect.DeepEqual(bare.RTT, want.RTT) ||
			!reflect.DeepEqual(bare.Lost, want.Lost) {
			t.Fatal("bare decode disagrees with full decode")
		}
	}
}
