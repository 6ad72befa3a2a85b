package snap

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzSnapshotRoundTrip drives Validate — the one reader of every
// sidecar file — with arbitrary bytes, under the binding the input
// itself carries so that mutation reaches the records behind it. It
// must never panic or allocate out of proportion to its input, and
// whatever it accepts must re-encode to exactly the bytes it was read
// from: no record is ever made up. Seeds cover the three kinds of file
// and the ways they break.
func FuzzSnapshotRoundTrip(f *testing.F) {
	b := testBinding()
	valid := Image(b, testPayloads...)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	for _, seed := range [][]byte{
		{},
		Image(Binding{}),
		valid,
		valid[:len(valid)-3],
		flipped,
		append(append([]byte(nil), valid...), make([]byte, 12)...),
		Image(Binding{PassSet: "continent-cdf-v1", Index: "idx", Meta: "meta"}, append([]byte{1}, bytes.Repeat([]byte{0xaa}, 64)...)),
		Image(Binding{PassSet: "engine-checkpoint-v1"}, []byte(`{"version":1,"fingerprint":"fp","workers":2,"round":7}`)),
		[]byte(`{"version":1,"fingerprint":"fp"}`),
		append([]byte("SNAP\x01\x00\x00\n"), valid[8:]...),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want := Validate(data, Binding{}).Binding
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := Validate(data, want)
		runtime.ReadMemStats(&after)
		// The fuzzing machinery allocates beside the call; past a fixed
		// allowance for it, only the Records slice may grow with the input.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+8*uint64(len(data)) {
			t.Fatalf("validating %d bytes allocated %d", len(data), grew)
		}
		if p.Valid == 0 {
			if len(p.Records) != 0 {
				t.Fatalf("%d records behind a refused header", len(p.Records))
			}
			return
		}
		payloads := make([][]byte, len(p.Records))
		for i, rec := range p.Records {
			payloads[i] = rec.Payload
		}
		if re := Image(p.Binding, payloads...); !bytes.Equal(re, data[:p.Valid]) {
			t.Fatalf("accepted prefix of %d bytes re-encodes to %d different bytes", p.Valid, len(re))
		}
		if (p.Stop == "") != (p.Valid == int64(len(data))) {
			t.Fatalf("valid %d of %d bytes, stop %q", p.Valid, len(data), p.Stop)
		}
	})
}
