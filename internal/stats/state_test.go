package stats

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/snap"
)

// TestDistStateRoundTrip checks that a decoded Dist is bitwise
// interchangeable with the original: same queries, and — the property
// snapshots rely on — continuing to Add after decode yields the same
// accumulators as never serializing at all.
func TestDistStateRoundTrip(t *testing.T) {
	d := &Dist{}
	vals := []float64{3.25, 1e-9, 7, 2.5, 3.25, 1e6, 0.1}
	for _, v := range vals {
		if err := d.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	c := snap.NewCursor(d.AppendState(nil))
	got, err := DecodeDistState(c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Remaining() != 0 {
		t.Fatalf("%d bytes remain", c.Remaining())
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip: got %+v want %+v", got, d)
	}

	// Continue adding on both; every accumulator must stay bitwise equal.
	for _, v := range []float64{9.75, 0.5} {
		if err := d.Add(v); err != nil {
			t.Fatal(err)
		}
		if err := got.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if math.Float64bits(got.sum) != math.Float64bits(d.sum) ||
		math.Float64bits(got.sumSq) != math.Float64bits(d.sumSq) ||
		!reflect.DeepEqual(got.samples, d.samples) {
		t.Fatal("decoded dist diverged after further adds")
	}

	// Sorted flag round-trips: a queried dist decodes as sorted, and the
	// sorted slab is captured lazily — order-statistic queries answer
	// straight from the span, materializing recovers the full buffer,
	// and re-encoding the untouched span reproduces the state verbatim.
	if _, err := d.Median(); err != nil {
		t.Fatal(err)
	}
	state := d.AppendState(nil)
	c = snap.NewCursor(state)
	got, err = DecodeDistState(c)
	if err != nil {
		t.Fatal(err)
	}
	if !got.sorted || len(got.spans) == 0 {
		t.Fatalf("sorted dist state not captured as span: %+v", got)
	}
	if !bytes.Equal(got.AppendState(nil), state) {
		t.Fatal("span splice did not reproduce the state")
	}
	gm, err := got.Median()
	if err != nil {
		t.Fatal(err)
	}
	dm, err := d.Median()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gm) != math.Float64bits(dm) {
		t.Fatalf("span median %v != %v", gm, dm)
	}
	if err := got.materialize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.samples, d.samples) {
		t.Fatal("sorted dist state did not round-trip")
	}

	// Empty dist round-trips too.
	c = snap.NewCursor((&Dist{}).AppendState(nil))
	if got, err = DecodeDistState(c); err != nil || got.N() != 0 {
		t.Fatalf("empty dist: %v %+v", err, got)
	}
}

func TestDecodeDistStateRejectsCorruption(t *testing.T) {
	d := &Dist{}
	if err := d.AddAll(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	state := d.AppendState(nil)
	for n := 0; n < len(state); n++ {
		if _, err := DecodeDistState(snap.NewCursor(state[:n])); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Absurd sample count vs remaining bytes.
	bad := snap.AppendUvarint(nil, 1<<40)
	if _, err := DecodeDistState(snap.NewCursor(bad)); err == nil {
		t.Fatal("oversized count decoded")
	}
	// NaN sample in state.
	bad = snap.AppendUvarint(nil, 1)
	bad = snap.AppendFloat(bad, math.NaN())
	bad = snap.AppendFloat(bad, 0)
	bad = snap.AppendFloat(bad, 0)
	bad = snap.AppendBool(bad, false)
	if _, err := DecodeDistState(snap.NewCursor(bad)); err == nil {
		t.Fatal("NaN sample decoded")
	}
}

// TestStateAppendsInPlace pins the Append* convention: state encoders
// append to the passed buffer rather than replacing it, so callers can
// concatenate multiple aggregates into one payload.
func TestStateAppendsInPlace(t *testing.T) {
	d := &Dist{}
	if err := d.Add(4); err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	out := d.AppendState(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("AppendState did not preserve prefix")
	}
}

// TestDistSpanOverlayQueries pins the lazy span+overlay representation
// to an eagerly materialized twin: merging deltas into a span-backed
// dist keeps the history serialized, yet every query and the
// re-serialized state stay bitwise identical to the materialized path.
func TestDistSpanOverlayQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := &Dist{}
	for i := 0; i < 4001; i++ {
		if err := d.Add(1 + 250*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Median(); err != nil { // sorted state captures as span
		t.Fatal(err)
	}
	state := d.AppendState(nil)
	lazy, err := DecodeDistState(snap.NewCursor(state))
	if err != nil {
		t.Fatal(err)
	}
	eager, err := DecodeDistState(snap.NewCursor(state))
	if err != nil {
		t.Fatal(err)
	}
	if err := eager.materialize(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		delta := &Dist{}
		for i := 0; i < 61; i++ {
			if err := delta.Add(1 + 250*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if err := lazy.Merge(delta); err != nil {
			t.Fatal(err)
		}
		if err := eager.Merge(delta); err != nil {
			t.Fatal(err)
		}
		if len(lazy.spans) == 0 {
			t.Fatalf("round %d: delta merge materialized the span", round)
		}
		if lazy.N() != eager.N() {
			t.Fatalf("round %d: n %d != %d", round, lazy.N(), eager.N())
		}
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
			lv, err := lazy.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := eager.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(lv) != math.Float64bits(ev) {
				t.Fatalf("round %d: q%v %v != %v", round, q, lv, ev)
			}
		}
		for name, pair := range map[string][2]func() (float64, error){
			"min":  {lazy.Min, eager.Min},
			"max":  {lazy.Max, eager.Max},
			"mean": {lazy.Mean, eager.Mean},
			"std":  {lazy.StdDev, eager.StdDev},
		} {
			lv, err := pair[0]()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := pair[1]()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(lv) != math.Float64bits(ev) {
				t.Fatalf("round %d: %s %v != %v", round, name, lv, ev)
			}
		}
	}
	// Serializing the span+overlay form writes the same bytes as the
	// materialized, sorted twin.
	eager.ensureSorted()
	if !bytes.Equal(lazy.AppendState(nil), eager.AppendState(nil)) {
		t.Fatal("span+overlay state differs from materialized state")
	}
}

// TestDistSpanCorruptionSurfaces confirms deferred validation still
// surfaces: a NaN hidden in a sorted slab decodes lazily but fails on
// first touch instead of yielding a figure.
func TestDistSpanCorruptionSurfaces(t *testing.T) {
	bad := snap.AppendUvarint(nil, 2)
	bad = snap.AppendFloat(bad, 1)
	bad = snap.AppendFloat(bad, math.NaN())
	bad = snap.AppendFloat(bad, 1)
	bad = snap.AppendFloat(bad, 1)
	bad = snap.AppendBool(bad, true)
	d, err := DecodeDistState(snap.NewCursor(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Quantile(0.9); err == nil {
		t.Fatal("NaN span sample served a quantile")
	}
	if err := d.materialize(); err == nil {
		t.Fatal("NaN span sample materialized")
	}
}
