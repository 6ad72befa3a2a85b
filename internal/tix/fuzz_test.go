package tix

import (
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

// fuzzSeedPayloads builds a few well-formed node payloads so the fuzzer
// starts from the interesting part of the input space.
func fuzzSeedPayloads(t testing.TB) [][]byte {
	t.Helper()
	mk := func(fill func(*nodeState)) []byte {
		ns := newNodeState()
		fill(ns)
		return encodeNode(1, 0, 8, 4096, ns)
	}
	add := func(ns *nodeState, ct geo.Continent, vals ...float64) {
		d := &stats.Dist{}
		cnt := ns.grid.row(ct)
		for _, v := range vals {
			if err := d.Add(v); err != nil {
				t.Fatal(err)
			}
			if k := curveBin(v); k >= 0 {
				cnt[k]++
			}
		}
		ns.dists[ct] = d
		ns.grid.n[ct] = uint64(d.N())
	}
	return [][]byte{
		mk(func(ns *nodeState) { ns.grid.rows, ns.grid.delivered = 4, 0 }),
		mk(func(ns *nodeState) {
			ns.grid.rows, ns.grid.delivered = 16, 9
			add(ns, geo.Europe, 12.5, 3.25, 88, 12.5)
			add(ns, geo.Oceania, 250.75)
		}),
		mk(func(ns *nodeState) {
			ns.grid.rows, ns.grid.delivered = 6, 6
			for i, ct := range geo.Continents() {
				add(ns, ct, float64(i+1)*7.5)
			}
		}),
	}
}

// FuzzNodeRoundTrip hammers the segment-node codec: arbitrary bytes
// must never panic the decoder, and any payload it accepts must
// re-encode into a payload that decodes to the same aggregate — the
// stability the on-disk tree depends on when parents merge children
// read back from the file.
func FuzzNodeRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeedPayloads(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{recNode})
	f.Add([]byte{0x00, 1, 2, 3}) // not a node record

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || payload[0] != recNode {
			return
		}
		ref, ns, err := decodeNodeState(payload)
		if err != nil {
			return
		}
		re := encodeNode(ref.level, ref.start, ref.startOff, ref.endOff, ns)
		ref2, ns2, err := decodeNodeState(re)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if ref2.level != ref.level || ref2.start != ref.start ||
			ref2.startOff != ref.startOff || ref2.endOff != ref.endOff ||
			ref2.rows != ref.rows || ref2.delivered != ref.delivered {
			t.Fatalf("fixed fields drift: %+v vs %+v", ref2, ref)
		}
		for _, ct := range geo.Continents() {
			d1, d2 := ns.dists[ct], ns2.dists[ct]
			n1, n2 := 0, 0
			if d1 != nil {
				n1 = d1.N()
			}
			if d2 != nil {
				n2 = d2.N()
			}
			if n1 != n2 {
				t.Fatalf("%v: %d samples decode to %d after re-encode", ct, n1, n2)
			}
			if n1 == 0 {
				continue
			}
			if !slices.Equal(ns.grid.bins[ct], ns2.grid.bins[ct]) || ns.grid.n[ct] != ns2.grid.n[ct] {
				t.Fatalf("%v: curve counts drift across re-encode", ct)
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
				v1, err1 := d1.Quantile(q)
				v2, err2 := d2.Quantile(q)
				if err1 != nil || err2 != nil {
					t.Fatalf("%v: quantile errors %v / %v", ct, err1, err2)
				}
				if v1 != v2 && !(v1 != v1 && v2 != v2) { // NaN-tolerant equality
					t.Fatalf("%v: q%.2f = %v before, %v after re-encode", ct, q, v1, v2)
				}
			}
		}
	})
}
