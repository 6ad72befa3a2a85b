package netem

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
)

// TestFloorMonotoneInDistance: along a meridian, farther targets have
// higher physics floors (propagation dominates the floor).
func TestFloorMonotoneInDistance(t *testing.T) {
	m := testModel(t)
	src := wiredSite("p", geo.Point{Lat: 0, Lon: 0}, geo.Tier1, geo.Europe)
	prev := -1.0
	for d := 1; d <= 80; d += 5 {
		dst := Target{
			ID:        "d", // same ID: identical per-path draws, distance is the only change
			Location:  geo.Point{Lat: float64(d), Lon: 0},
			Continent: geo.Europe,
			Private:   true,
		}
		p, err := m.Path(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		floor := p.propMs + m.cfg.ProcessingMs
		if floor <= prev {
			t.Fatalf("floor not monotone at %d deg: %.2f <= %.2f", d, floor, prev)
		}
		prev = floor
	}
}

// TestSampleComponentsProperty: for random times, the breakdown components
// are non-negative and sum to the total, and RTT agrees with Sample.
func TestSampleComponentsProperty(t *testing.T) {
	m := testModel(t)
	p, err := m.Path(wiredSite("p", helsinki, geo.Tier2, geo.Europe),
		Target{ID: "d", Location: frankfurt, Continent: geo.Europe, Private: false})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	prop := func(offset uint32) bool {
		at := base.Add(time.Duration(offset) * time.Second)
		b := p.Sample(at)
		rtt, lost := p.RTT(at)
		if b.Lost != lost {
			return false
		}
		if lost {
			return true
		}
		if b.PropagationMs < 0 || b.TransitMs < 0 || b.LastMileMs < 0 || b.BloatMs < 0 || b.ProcessingMs < 0 {
			return false
		}
		sum := b.PropagationMs + b.TransitMs + b.LastMileMs + b.BloatMs + b.ProcessingMs
		return math.Abs(sum-b.TotalMs) < 1e-9 && math.Abs(rtt-b.TotalMs) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStretchWithinBand: the derived propagation never exceeds the
// configured stretch band over the pure great-circle time.
func TestStretchWithinBand(t *testing.T) {
	cfg := DefaultConfig()
	m, err := NewModel(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	pure := func(a, b geo.Point) float64 {
		return 2 * geo.DistanceKm(a, b) / cfg.FiberKmPerMs
	}
	cases := []struct {
		name    string
		dst     Target
		maxFrac float64
	}{
		{"private same-continent", Target{ID: "d1", Location: frankfurt, Continent: geo.Europe, Private: true}, cfg.StretchPrivate.Hi},
		{"public same-continent", Target{ID: "d2", Location: frankfurt, Continent: geo.Europe, Private: false}, cfg.StretchPublic.Hi},
		{"public inter-continent", Target{ID: "d3", Location: geo.Point{Lat: 40.71, Lon: -74.01}, Continent: geo.NorthAmerica, Private: false}, cfg.StretchPublic.Hi + cfg.InterContinentStretch.Hi},
	}
	src := wiredSite("p", helsinki, geo.Tier1, geo.Europe)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := m.Path(src, tc.dst)
			if err != nil {
				t.Fatal(err)
			}
			floor := p.propMs
			base := pure(src.Location, tc.dst.Location)
			if floor < base || floor > base*tc.maxFrac+1e-9 {
				t.Errorf("stretched propagation %.2f outside [%.2f, %.2f]", floor, base, base*tc.maxFrac)
			}
		})
	}
}

// TestSameConfigDifferentModelInstances: two models with identical seed and
// config are interchangeable.
func TestSameConfigDifferentModelInstances(t *testing.T) {
	m1, err := NewModel(DefaultConfig(), 77)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewModel(DefaultConfig(), 77)
	if err != nil {
		t.Fatal(err)
	}
	src := wiredSite("p", lagos, geo.Tier3, geo.Africa)
	dst := Target{ID: "d", Location: frankfurt, Continent: geo.Europe, Private: true}
	p1, err := m1.Path(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m2.Path(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		at := base.Add(time.Duration(i) * 7 * time.Minute)
		r1, l1 := p1.RTT(at)
		r2, l2 := p2.RTT(at)
		if r1 != r2 || l1 != l2 {
			t.Fatalf("models diverge at %v: %v/%v vs %v/%v", at, r1, l1, r2, l2)
		}
	}
}
