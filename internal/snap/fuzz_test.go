package snap

import (
	"bytes"
	"testing"
)

// FuzzSnapshotRoundTrip drives Decode with arbitrary bytes: it must
// either reject the input or yield a header+payload that re-encode and
// re-decode to the same values — a snapshot is never silently
// misapplied. Seeds cover valid images so mutation explores near-valid
// corruptions.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(Header{}, nil))
	f.Add(Encode(Header{
		PassSet:       "suite-v1",
		Index:         "idx",
		Meta:          "meta",
		Format:        FormatBinary,
		CoveredBytes:  1 << 20,
		CoveredBlocks: 88,
		Samples:       345600,
		HeadCRC:       1,
		TailCRC:       2,
	}, []byte("state")))
	data := Encode(Header{Format: 0, CoveredBytes: 42, Samples: 7}, bytes.Repeat([]byte{0xaa}, 64))
	f.Add(data)
	data = append([]byte(nil), data...)
	data[len(data)/2] ^= 0xff
	f.Add(data)

	// Payloads shaped like the suite's version-2 state — a region table,
	// then (probe, region code) entries — well-formed once, then with each
	// rule the state decoder enforces broken: unsorted table, duplicate
	// table entry, code out of range, duplicate probe.
	v2 := Header{PassSet: "suite-v2|start=0|width=1", Format: FormatBinary, CoveredBytes: 1 << 10, CoveredBlocks: 2, Samples: 9}
	for _, sh := range []struct {
		table  []string
		probes []int64
		code   uint64
	}{
		{[]string{"A/a", "B/b"}, []int64{1, 2}, 1},
		{[]string{"B/b", "A/a"}, []int64{1, 2}, 1},
		{[]string{"A/a", "A/a"}, []int64{1, 2}, 1},
		{[]string{"A/a", "B/b"}, []int64{1, 2}, 2},
		{[]string{"A/a", "B/b"}, []int64{1, 1}, 0},
	} {
		state := AppendUvarint(nil, uint64(len(sh.table)))
		for _, region := range sh.table {
			state = AppendString(state, region)
		}
		state = AppendUvarint(state, uint64(len(sh.probes)))
		for _, id := range sh.probes {
			state = AppendVarint(state, id)
			state = AppendUvarint(state, sh.code)
			state = AppendFloat(state, 12.5)
		}
		f.Add(Encode(v2, state))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(h, payload)
		h2, payload2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if h2 != h || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip diverged: %+v %q vs %+v %q", h, payload, h2, payload2)
		}
	})
}
