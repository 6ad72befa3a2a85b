package netem

import (
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geo"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(DefaultConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func wiredSite(id string, loc geo.Point, tier geo.Tier, ct geo.Continent) Site {
	return Site{ID: id, Location: loc, Continent: ct, Tier: tier, Access: AccessWired}
}

var (
	helsinki  = geo.Point{Lat: 60.17, Lon: 24.94}
	stockholm = geo.Point{Lat: 59.33, Lon: 18.07}
	lagos     = geo.Point{Lat: 6.52, Lon: 3.38}
	frankfurt = geo.Point{Lat: 50.11, Lon: 8.68}
)

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		fn   func(*Config)
	}{
		{"zero fiber speed", func(c *Config) { c.FiberKmPerMs = 0 }},
		{"stretch below 1", func(c *Config) { c.StretchPrivate.Lo = 0.5 }},
		{"inverted range", func(c *Config) { c.LastMileWired = Range{10, 2} }},
		{"bad tier band", func(c *Config) { c.TransitByTier[2] = Range{5, 1} }},
		{"loss above 1", func(c *Config) { c.LossWireless = 1.5 }},
		{"negative bloat", func(c *Config) { c.BloatMeanMs = -1 }},
		{"negative diurnal amplitude", func(c *Config) { c.DiurnalAmpByTier[3] = -0.2 }},
		{"NaN diurnal amplitude", func(c *Config) { c.DiurnalAmpByTier[1] = math.NaN() }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := DefaultConfig()
			m.fn(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
			if _, err := NewModel(c, 1); err == nil {
				t.Error("NewModel accepted invalid config")
			}
		})
	}
}

func TestPathValidation(t *testing.T) {
	m := testModel(t)
	src := wiredSite("p1", helsinki, geo.Tier1, geo.Europe)
	dst := Target{ID: "d1", Location: stockholm, Continent: geo.Europe, Private: true}
	if _, err := m.Path(src, dst); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	bad := src
	bad.ID = ""
	if _, err := m.Path(bad, dst); err == nil {
		t.Error("empty site ID accepted")
	}
	bad = src
	bad.Tier = 0
	if _, err := m.Path(bad, dst); err == nil {
		t.Error("invalid tier accepted")
	}
	bad = src
	bad.Location = geo.Point{Lat: 200, Lon: 0}
	if _, err := m.Path(bad, dst); err == nil {
		t.Error("invalid location accepted")
	}
	badDst := dst
	badDst.ID = ""
	if _, err := m.Path(src, badDst); err == nil {
		t.Error("empty target ID accepted")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func(seed uint64) (float64, bool) {
		m, err := NewModel(DefaultConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Path(wiredSite("p1", helsinki, geo.Tier1, geo.Europe),
			Target{ID: "d1", Location: stockholm, Continent: geo.Europe, Private: true})
		if err != nil {
			t.Fatal(err)
		}
		return p.RTT(time.Unix(1567296000, 0))
	}
	r1, l1 := mk(42)
	r2, l2 := mk(42)
	if r1 != r2 || l1 != l2 {
		t.Errorf("same seed gave different samples: %v,%v vs %v,%v", r1, l1, r2, l2)
	}
	r3, _ := mk(43)
	if r1 == r3 {
		t.Error("different seeds gave identical samples (suspicious)")
	}
}

func samplePath(t *testing.T, p *Path, n int) []float64 {
	t.Helper()
	base := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ms, lost := p.RTT(base.Add(time.Duration(i) * 3 * time.Hour))
		if !lost {
			if ms <= 0 {
				t.Fatalf("non-positive RTT %v", ms)
			}
			out = append(out, ms)
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[len(cp)/2]
}

func TestRegionalCalibration(t *testing.T) {
	m := testModel(t)
	// Tier-1 wired probe near a private-backbone DC: single-digit to
	// low-teens ms (Fig. 4: local-DC countries < 10 ms best case).
	near, err := m.Path(wiredSite("fi-probe", helsinki, geo.Tier1, geo.Europe),
		Target{ID: "gcp-hamina", Location: geo.Point{Lat: 60.57, Lon: 27.19}, Continent: geo.Europe, Private: true})
	if err != nil {
		t.Fatal(err)
	}
	nearMed := median(samplePath(t, near, 500))
	if nearMed < 2 || nearMed > 20 {
		t.Errorf("near-DC median = %.1f ms, want 2-20", nearMed)
	}

	// Tier-3/4 African probe to Europe: the paper reports 150-200 ms
	// typical, and >100 ms nearly always (§4.3, §5).
	far, err := m.Path(wiredSite("ng-probe", lagos, geo.Tier3, geo.Africa),
		Target{ID: "aws-fra", Location: frankfurt, Continent: geo.Europe, Private: true})
	if err != nil {
		t.Fatal(err)
	}
	farMed := median(samplePath(t, far, 500))
	if farMed < 50 || farMed > 250 {
		t.Errorf("Lagos-Frankfurt median = %.1f ms, want 50-250", farMed)
	}
	if farMed < nearMed*3 {
		t.Errorf("under-served path (%.1f) should be far slower than local (%.1f)", farMed, nearMed)
	}
}

func TestWirelessPenalty(t *testing.T) {
	// §4.3: wireless probes take ~2.5x longer to the nearest region, an
	// added 10-40 ms.
	m := testModel(t)
	dst := Target{ID: "dc", Location: stockholm, Continent: geo.Europe, Private: true}
	var wiredMeds, wirelessMeds []float64
	for i := 0; i < 20; i++ {
		w := wiredSite("w"+string(rune('a'+i)), helsinki, geo.Tier1, geo.Europe)
		pw, err := m.Path(w, dst)
		if err != nil {
			t.Fatal(err)
		}
		wiredMeds = append(wiredMeds, median(samplePath(t, pw, 200)))

		wl := w
		wl.ID = "wl" + string(rune('a'+i))
		wl.Access = AccessWireless
		pwl, err := m.Path(wl, dst)
		if err != nil {
			t.Fatal(err)
		}
		wirelessMeds = append(wirelessMeds, median(samplePath(t, pwl, 200)))
	}
	wired := median(wiredMeds)
	wireless := median(wirelessMeds)
	ratio := wireless / wired
	if ratio < 1.8 || ratio > 4.0 {
		t.Errorf("wireless/wired = %.2f (%.1f/%.1f ms), want ~2.5x (1.8-4.0)", ratio, wireless, wired)
	}
	added := wireless - wired
	if added < 8 || added > 45 {
		t.Errorf("wireless adds %.1f ms, want ~10-40", added)
	}
}

func TestPrivateVsPublicBackbone(t *testing.T) {
	// Over a long path, public-transit providers should be slower on
	// average than private backbones (§4.1).
	m := testModel(t)
	src := wiredSite("us-probe", geo.Point{Lat: 40.71, Lon: -74.01}, geo.Tier1, geo.NorthAmerica)
	var priv, pub []float64
	for i := 0; i < 30; i++ {
		id := string(rune('a' + i))
		pp, err := m.Path(src, Target{ID: "priv" + id, Location: geo.Point{Lat: 37.77, Lon: -122.42}, Continent: geo.NorthAmerica, Private: true})
		if err != nil {
			t.Fatal(err)
		}
		priv = append(priv, median(samplePath(t, pp, 100)))
		pb, err := m.Path(src, Target{ID: "pub" + id, Location: geo.Point{Lat: 37.77, Lon: -122.42}, Continent: geo.NorthAmerica, Private: false})
		if err != nil {
			t.Fatal(err)
		}
		pub = append(pub, median(samplePath(t, pb, 100)))
	}
	if median(pub) <= median(priv) {
		t.Errorf("public transit (%.1f ms) not slower than private backbone (%.1f ms)", median(pub), median(priv))
	}
}

func TestFloorIsRespected(t *testing.T) {
	m := testModel(t)
	p, err := m.Path(wiredSite("p", helsinki, geo.Tier2, geo.Europe),
		Target{ID: "d", Location: frankfurt, Continent: geo.Europe, Private: false})
	if err != nil {
		t.Fatal(err)
	}
	floor := p.propMs + m.cfg.ProcessingMs // the physics floor
	if floor <= 0 {
		t.Fatalf("floor = %v", floor)
	}
	base := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 2000; i++ {
		ms, lost := p.RTT(base.Add(time.Duration(i) * time.Hour))
		if lost {
			continue
		}
		if ms < floor {
			t.Fatalf("sample %v below physics floor %v", ms, floor)
		}
	}
}

func TestLossRates(t *testing.T) {
	m := testModel(t)
	count := func(access Access, tier geo.Tier) float64 {
		s := Site{ID: "p-" + access.String() + tier.String(), Location: helsinki, Continent: geo.Europe, Tier: tier, Access: access}
		p, err := m.Path(s, Target{ID: "d", Location: stockholm, Continent: geo.Europe, Private: true})
		if err != nil {
			t.Fatal(err)
		}
		lost := 0
		base := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
		const n = 20000
		for i := 0; i < n; i++ {
			if _, l := p.RTT(base.Add(time.Duration(i) * time.Minute)); l {
				lost++
			}
		}
		return float64(lost) / n
	}
	wired := count(AccessWired, geo.Tier1)
	wireless := count(AccessWireless, geo.Tier1)
	tier4 := count(AccessWired, geo.Tier4)
	if wired >= wireless {
		t.Errorf("wired loss %.4f >= wireless loss %.4f", wired, wireless)
	}
	if wired >= tier4 {
		t.Errorf("tier1 loss %.4f >= tier4 loss %.4f", wired, tier4)
	}
	if wired > 0.02 {
		t.Errorf("tier-1 wired loss %.4f implausibly high", wired)
	}
}

func TestAccessString(t *testing.T) {
	cases := map[Access]string{
		AccessWired: "wired", AccessWireless: "wireless",
		AccessCore: "core", 0: "unknown",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

// TestPathHoldsNoPointers: a campaign keeps one Path per (probe, region)
// pair live for its whole run, so Path must give the collector nothing
// to scan — no pointer, string, slice, map, interface, channel or func
// anywhere in it, nested structs and arrays included.
func TestPathHoldsNoPointers(t *testing.T) {
	var walk func(typ reflect.Type, at string)
	walk = func(typ reflect.Type, at string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, at+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), at+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: Path must hold scalars only", at, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Path{}), "Path")
}

// TestPathSize: a 120-byte Path fills one 128-byte size-class slot, the
// two cache lines Touch reads; a smaller one would straddle lines.
func TestPathSize(t *testing.T) {
	if got := unsafe.Sizeof(Path{}); got != 120 {
		t.Errorf("Path is %d bytes, want 120", got)
	}
}
