package tix

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/snap"
)

// PrefixRowBytes is the size of the prefix row each block record keeps
// resident, for tests that bound what Open allocates.
const PrefixRowBytes = int64(unsafe.Sizeof(prefix{}))

// fuzzSeedPayloads builds a few well-formed block payloads so the fuzzer
// starts from the interesting part of the input space.
func fuzzSeedPayloads() [][]byte {
	h := header{startOff: 8, endOff: 4096, rows: 16, delivered: 9}
	var all [numContinents][]float64
	for i, ct := range geo.Continents() {
		all[ct] = []float64{float64(i+1) * 7.5}
	}
	h6 := h
	h6.rows, h6.delivered = 6, 6
	var long [numContinents][]float64 // a slab of three chunks, the last short
	for j := 0; j < 150; j++ {
		long[geo.Europe] = append(long[geo.Europe], float64(j)/3)
	}
	h150 := h
	h150.rows, h150.delivered = 150, 150
	return [][]byte{
		encodeBlock(nil, header{startOff: 8, endOff: 64, rows: 4}, &[numContinents][]float64{}),
		encodeBlock(nil, h, &[numContinents][]float64{
			geo.Europe:  {0.25, 3.25, 12.5, 12.5, 88, 400},
			geo.Oceania: {250.75, 400.5, 1234},
		}),
		encodeBlock(nil, h6, &all),
		encodeBlock(nil, h150, &long),
	}
}

// FuzzNodeRoundTrip hammers the block-record codec: arbitrary bytes
// must never panic the decoder, and any payload Open would accept must
// re-encode byte for byte, derive the same prefix row as the per-sample
// bin kernel (curveBin, which the edge codes use too) computes from its
// values, and get a slab directory whose offsets locate each slab in
// the payload and whose CRCs match each chunk.
func FuzzNodeRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeedPayloads() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{recBlock})
	f.Add([]byte{0x01, 1, 2, 3}) // not a block record

	f.Fuzz(func(t *testing.T, payload []byte) {
		h, s, err := decodeBlock(payload)
		if err != nil {
			return
		}
		ix := &Index{cum: make([]prefix, 1)}
		if ix.grow(h, s) != nil {
			return
		}
		var vals [numContinents][]float64
		var want prefix
		want.rows, want.delivered = h.rows, h.delivered
		for ct, slab := range s {
			for j := 0; j < len(slab)/8; j++ {
				v := at(slab, j)
				vals[ct] = append(vals[ct], v)
				want.bins[ct][curveBin(v)]++
			}
			for k := 1; k <= curveBins; k++ {
				want.bins[ct][k] += want.bins[ct][k-1]
			}
		}
		if re := encodeBlock(nil, h, &vals); !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n%x\n%x", payload, re)
		}
		if ix.cum[1] != want {
			t.Fatal("prefix row derived from the slabs differs from the per-sample bin counts")
		}
		const at = 4096 // where the payload starts in the sidecar
		rec := locate(at, payload, s)
		for ct, slab := range s {
			if o := int(rec.off[ct] - at); len(slab) > 0 && (o < 0 || o+len(slab) > len(payload) || !bytes.Equal(payload[o:o+len(slab)], slab)) {
				t.Fatalf("%v slab located at payload offset %d", geo.Continent(ct), o)
			}
			if len(rec.crc[ct]) != (len(slab)+chunkSize-1)/chunkSize {
				t.Fatalf("%v slab of %d bytes has %d chunk CRCs", geo.Continent(ct), len(slab), len(rec.crc[ct]))
			}
			for c, sum := range rec.crc[ct] {
				if snap.Checksum(slab[c*chunkSize:min((c+1)*chunkSize, len(slab))]) != sum {
					t.Fatalf("%v slab chunk %d CRC %08x does not match its bytes", geo.Continent(ct), c, sum)
				}
			}
		}
	})
}
