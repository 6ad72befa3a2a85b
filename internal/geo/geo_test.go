package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name   string
		a, b   Point
		wantKm float64
		tolKm  float64
	}{
		{"London-Paris", Point{51.51, -0.13}, Point{48.86, 2.35}, 344, 15},
		{"NewYork-LosAngeles", Point{40.71, -74.01}, Point{34.05, -118.24}, 3936, 50},
		{"Sydney-Auckland", Point{-33.87, 151.21}, Point{-36.85, 174.76}, 2156, 50},
		{"Helsinki-Singapore", Point{60.17, 24.94}, Point{1.35, 103.82}, 9280, 150},
		{"same-point", Point{10, 10}, Point{10, 10}, 0, 0.001},
		{"antipodal", Point{0, 0}, Point{0, 180}, math.Pi * EarthRadiusKm, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DistanceKm(tc.a, tc.b)
			if math.Abs(got-tc.wantKm) > tc.tolKm {
				t.Errorf("DistanceKm(%v,%v) = %.1f km, want %.1f±%.1f", tc.a, tc.b, got, tc.wantKm, tc.tolKm)
			}
		})
	}
}

func TestDistanceProperties(t *testing.T) {
	clamp := func(p Point) Point {
		return Point{
			Lat: math.Mod(math.Abs(p.Lat), 90) * sign(p.Lat),
			Lon: math.Mod(math.Abs(p.Lon), 180) * sign(p.Lon),
		}
	}
	symmetric := func(a, b Point) bool {
		a, b = clamp(a), clamp(b)
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("distance not symmetric: %v", err)
	}
	nonNegativeBounded := func(a, b Point) bool {
		a, b = clamp(a), clamp(b)
		d := DistanceKm(a, b)
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(nonNegativeBounded, nil); err != nil {
		t.Errorf("distance out of bounds: %v", err)
	}
	identity := func(a Point) bool {
		a = clamp(a)
		return DistanceKm(a, a) < 1e-9
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("distance identity violated: %v", err)
	}
}

func sign(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {90, 180}, {-90, -180}, {45.5, -120.3}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("Valid(%v) = false, want true", p)
		}
	}
	invalid := []Point{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("Valid(%v) = true, want false", p)
		}
	}
}

func TestContinentRoundTrip(t *testing.T) {
	for _, c := range Continents() {
		got, err := ParseContinent(c.Code())
		if err != nil {
			t.Fatalf("ParseContinent(%q): %v", c.Code(), err)
		}
		if got != c {
			t.Errorf("ParseContinent(%q) = %v, want %v", c.Code(), got, c)
		}
		got, err = ParseContinent(c.String())
		if err != nil {
			t.Fatalf("ParseContinent(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("ParseContinent(%q) = %v, want %v", c.String(), got, c)
		}
	}
	if _, err := ParseContinent("Atlantis"); err == nil {
		t.Error("ParseContinent(Atlantis) succeeded, want error")
	}
}

func TestMeasurementTargets(t *testing.T) {
	// Paper §4.1: Africa also measures to Europe, South America to North
	// America; everyone else stays within-continent.
	cases := map[Continent][]Continent{
		Africa:       {Africa, Europe},
		SouthAmerica: {SouthAmerica, NorthAmerica},
		Europe:       {Europe},
		Asia:         {Asia},
		NorthAmerica: {NorthAmerica},
		Oceania:      {Oceania},
	}
	for c, want := range cases {
		got := c.MeasurementTargets()
		if len(got) != len(want) {
			t.Errorf("%v targets = %v, want %v", c, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%v targets = %v, want %v", c, got, want)
			}
		}
	}
	if got := ContinentUnknown.MeasurementTargets(); got != nil {
		t.Errorf("unknown continent targets = %v, want nil", got)
	}
}

func TestWorldDB(t *testing.T) {
	db := World()
	// The paper's census is 166 countries; the table holds 178.
	if db.Len() != 178 {
		t.Errorf("world has %d countries, want 178", db.Len())
	}
	// Every continent must be represented.
	counts := make(map[Continent]int)
	for _, c := range db.All() {
		counts[c.Continent]++
	}
	for _, c := range Continents() {
		if counts[c] == 0 {
			t.Errorf("continent %v has no countries", c)
		}
	}
	// Spot-check a few entries.
	us, ok := db.Lookup("US")
	if !ok || us.Continent != NorthAmerica || us.Tier != Tier1 {
		t.Errorf("US lookup = %+v, ok=%v", us, ok)
	}
	if _, ok := db.Lookup("ZZ"); ok {
		t.Error("Lookup(ZZ) succeeded, want miss")
	}
	// All sorted by ISO2.
	all := db.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ISO2 >= all[i].ISO2 {
			t.Fatalf("All() not sorted at %d: %s >= %s", i, all[i-1].ISO2, all[i].ISO2)
		}
	}
	// ByContinent returns only that continent.
	for _, c := range db.ByContinent(Africa) {
		if c.Continent != Africa {
			t.Errorf("ByContinent(Africa) returned %s in %v", c.ISO2, c.Continent)
		}
	}
}

func TestNewDBValidation(t *testing.T) {
	base := Country{ISO2: "AA", Name: "A", Continent: Europe, Centroid: Point{1, 1}, Tier: Tier1}
	cases := []struct {
		name   string
		mutate func(Country) Country
	}{
		{"bad iso", func(c Country) Country { c.ISO2 = "ABC"; return c }},
		{"bad centroid", func(c Country) Country { c.Centroid = Point{999, 0}; return c }},
		{"no continent", func(c Country) Country { c.Continent = ContinentUnknown; return c }},
		{"bad tier low", func(c Country) Country { c.Tier = 0; return c }},
		{"bad tier high", func(c Country) Country { c.Tier = 9; return c }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewDB([]Country{tc.mutate(base)}); err == nil {
				t.Error("NewDB accepted invalid country")
			}
		})
	}
	if _, err := NewDB([]Country{base, base}); err == nil {
		t.Error("NewDB accepted duplicate ISO2")
	}
}

func TestTierString(t *testing.T) {
	if got := Tier3.String(); got != "tier-3" {
		t.Errorf("Tier3.String() = %q", got)
	}
}
