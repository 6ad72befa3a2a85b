package netem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
)

// referenceSample is Sample computed the direct way: math.Mod for the
// local hour from the site's longitude, math.Max(0, math.Sin(…)) on
// every call, and the Config scalars read from the model, not from the
// copies the path carries. Sample must reproduce it to the bit, because
// every RTT in samples.bin and the golden digests depend on it.
func referenceSample(m *Model, src Site, p *Path, t time.Time) Breakdown {
	r := newRNG(p.key, uint64(t.Unix()), 2)
	if r.float64() < p.lossP {
		return Breakdown{Lost: true}
	}
	transit := r.inRange(p.transit.Lo, p.transit.Hi)
	localHour := math.Mod(float64(t.Unix())/3600+src.Location.Lon/15+48, 24)
	peak := math.Max(0, math.Sin((localHour-8)/12*math.Pi))
	transit *= 1 + p.diurnal*peak*r.float64()

	lastMile := p.lmBase
	if p.lmJit > 0 {
		lastMile += p.lmJit * r.float64() * r.float64()
	}
	bloat := 0.0
	win := uint64(t.Unix() / int64(bloatWindow/time.Second))
	wr := newRNG(p.key, win, 3)
	if p.bloatP > 0 && wr.float64() < p.bloatP {
		bloat = wr.expMs(m.cfg.BloatMeanMs) * (0.5 + 0.5*r.float64())
	}
	jitter := r.lognormal(0, 0.15)
	if jitter < m.cfg.JitterFloor {
		jitter = m.cfg.JitterFloor
	}
	b := Breakdown{
		PropagationMs: p.propMs,
		TransitMs:     transit * jitter,
		LastMileMs:    lastMile * jitter,
		BloatMs:       bloat * jitter,
		ProcessingMs:  m.cfg.ProcessingMs,
	}
	b.TotalMs = b.PropagationMs + b.TransitMs + b.LastMileMs + b.BloatMs + b.ProcessingMs
	return b
}

func referencePeak(x float64) float64 {
	return math.Max(0, math.Sin((math.Mod(x, 24)-8)/12*math.Pi))
}

// sameBreakdown reports whether every field of a and b has the same bits.
func sameBreakdown(a, b Breakdown) bool {
	bits := func(b Breakdown) [6]uint64 {
		return [6]uint64{
			math.Float64bits(b.PropagationMs), math.Float64bits(b.TransitMs), math.Float64bits(b.LastMileMs),
			math.Float64bits(b.BloatMs), math.Float64bits(b.ProcessingMs), math.Float64bits(b.TotalMs),
		}
	}
	return a.Lost == b.Lost && bits(a) == bits(b)
}

// sitePath is a derived path with the site it was derived from.
type sitePath struct {
	src  Site
	path *Path
}

// seededPaths derives n paths from random sites worldwide, every tier and
// access class, to a handful of targets.
func seededPaths(t *testing.T, m *Model, rng *rand.Rand, n int) []sitePath {
	t.Helper()
	targets := []Target{
		{ID: "fra", Location: frankfurt, Continent: geo.Europe, Private: true},
		{ID: "sto", Location: stockholm, Continent: geo.Europe},
		{ID: "sfo", Location: geo.Point{Lat: 37.77, Lon: -122.42}, Continent: geo.NorthAmerica, Private: true},
		{ID: "syd", Location: geo.Point{Lat: -33.87, Lon: 151.21}, Continent: geo.Oceania},
	}
	paths := make([]sitePath, 0, n)
	for i := 0; i < n; i++ {
		site := Site{
			ID:        fmt.Sprintf("p%d", i),
			Location:  geo.Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180},
			Continent: geo.Continents()[rng.Intn(len(geo.Continents()))],
			Tier:      geo.Tier(1 + rng.Intn(4)),
			Access:    Access(rng.Intn(4)),
		}
		p, err := m.Path(site, targets[rng.Intn(len(targets))])
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, sitePath{site, p})
	}
	return paths
}

// TestSampleMatchesReference: Sample equals the math.Mod + math.Sin
// arithmetic bit for bit over seeded paths at campaign times, before
// 1970 (the live path's virtual clock, where the hour is negative), at
// the extremes of Unix time, and on paths whose longitude puts whole days
// at local hours 8 and 20 — the sine's zeros — and their neighbours.
func TestSampleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := testModel(t)
	paths := seededPaths(t, m, rng, 300)
	campaign := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC).Unix()
	var times []int64
	for i := 0; i < 200; i++ {
		times = append(times,
			campaign+rng.Int63n(274*24*3600),     // nine months
			-rng.Int63n(1<<40),                   // before 1970
			-rng.Int63n(3*24*3600),               // the hours just before 1970
			campaign+int64(i)*3*3600,             // a round grid
			math.MaxInt64-rng.Int63n(1<<40),      // the hour count's far end
			math.MinInt64+rng.Int63n(1<<40)+3600, // and its negative end
		)
	}
	check := func(sp sitePath, sec int64) {
		ts := time.Unix(sec, 0)
		if got, want := sp.path.Sample(ts), referenceSample(m, sp.src, sp.path, ts); !sameBreakdown(got, want) {
			t.Fatalf("path %s at Unix %d: Sample %+v, reference %+v", sp.src.ID, sec, got, want)
		}
	}
	for _, sp := range paths {
		for _, sec := range times {
			check(sp, sec)
		}
	}

	// lon/15 + 48 is 56 (hour 8) at lon 120 and 44 (hour 20) at lon -60, so
	// whole days land on the sine's zeros; stepped longitudes land beside.
	dst := Target{ID: "d", Location: frankfurt, Continent: geo.Europe}
	for _, lon := range []float64{120, -60} {
		lons, lo, hi := []float64{lon}, lon, lon
		for i := 0; i < 64; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			lons = append(lons, lo, hi)
		}
		for _, l := range lons {
			src := Site{ID: "z", Location: geo.Point{Lat: 10, Lon: l}, Continent: geo.Asia,
				Tier: geo.Tier4, Access: AccessWireless}
			p, err := m.Path(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			for _, day := range []int64{-400, -1, 0, 1, 18140, 18500} {
				check(sitePath{src, p}, day*86400)
			}
		}
	}
}

// TestDiurnalPeakAtTheZeros: on the Nextafter neighbours of local hours 8
// and 20 — where the sine's argument is 0 and π, and the skip's bounds
// sit — and of the skip's other bounds, diurnalPeak equals the reference
// bit for bit, for every day offset and hours from either side of 1970.
func TestDiurnalPeakAtTheZeros(t *testing.T) {
	var xs []float64
	for _, day := range []float64{-1e6, -365, -2, -1, 0, 1, 2, 18140, 1e6, 1e11} {
		// Hours 8 and 20, and -4 and -16 for the negative remainders whose
		// arguments sit at -π and -2π.
		for _, h := range []float64{8, 20, -4, -16, 0, 24} {
			x := day*24 + h
			lo, hi := x, x
			for i := 0; i < 200; i++ {
				xs = append(xs, lo, hi)
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			}
		}
	}
	// Hours at which the argument crosses the skip's margins, π+1e-9 and
	// −π+1e-9 (a negative hour, so only before 1970).
	for _, theta := range []float64{math.Pi + 1e-9, -math.Pi + 1e-9} {
		h := theta/math.Pi*12 + 8
		for i := 0; i < 200; i++ {
			d := float64(i-100) * 1e-12
			xs = append(xs, h+d, h+24*7+d, h-24*7+d)
		}
	}
	for _, x := range xs {
		if got, want := diurnalPeak(x), referencePeak(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("diurnalPeak(%v) = %v, reference %v", x, got, want)
		}
	}
}

// TestMod24MatchesMathMod runs the remainder against math.Mod over 10 M
// seeded inputs: campaign-scale hours, every binary exponent below and
// above 2^52, multiples of 24 and their neighbours, negative hours, and
// the special values.
func TestMod24MatchesMathMod(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	same := func(x float64) {
		if got, want := mod24(x), math.Mod(x, 24); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("mod24(%v) = %v, math.Mod %v", x, got, want)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 24, 48, 1 << 52, 1<<52 - 1, 1<<52 + 24} {
		same(x)
		same(math.Nextafter(x, 0))
		same(math.Nextafter(x, math.Inf(1)))
	}
	// A splitmix64 stream held in locals, so the loop stays cheap under
	// the race detector: frac is uniform in [0,1) from the high 53 bits,
	// and the low 11 bits pick exponents, steps and directions.
	state := uint64(24)
	for i := 0; i < n; i++ {
		state += 0x9e3779b97f4a7c15
		u := (state ^ state>>30) * 0xbf58476d1ce4e5b9
		u = (u ^ u>>27) * 0x94d049bb133111eb
		u ^= u >> 31
		frac, b := float64(u>>11)/(1<<53), int(u&0x7ff)
		var x float64
		switch i % 5 {
		case 0: // hours of a campaign, 2019-2020
			x = 435000 + frac*7000
		case 1: // any magnitude, 2^-60 to 2^60
			x = math.Ldexp(1+frac, b%120-60)
		case 2: // beside a multiple of 24, where a rounded-up quotient would show
			e := 1 + b&63%47
			m := int64(frac * float64(int64(1)<<e))
			if b>>9 == 0 { // a power of two: the spacing below it halves
				m = int64(1) << (e - 1)
			}
			x = 24 * float64(m)
			dir := math.Inf(1 - 2*(b>>8&1))
			for k := b >> 6 & 3; k > 0; k-- {
				x = math.Nextafter(x, dir)
			}
		case 3: // the live path's negative hours
			x = -frac * float64(int64(1)<<(b%50))
		case 4: // just below and above 2^52
			x = math.Ldexp(1+frac, 51+b&1)
		}
		same(x)
	}
}

// TestMinRTTMatchesRTTFold: MinRTT equals the campaign's strict-< fold of
// RTT over t, t+1 s, …, bit for bit, all-lost included, for n = 1 to 9,
// over seeded paths of every access class at the times
// TestSampleMatchesReference draws — campaign rounds, before 1970 and
// both ends of Unix time — under the default calibration, a lossy one
// (where partial and total loss are common) and one whose jitter floor
// is 1, so bounds tie totals. MinRTT allocates nothing for any n.
func TestMinRTTMatchesRTTFold(t *testing.T) {
	lossy := DefaultConfig()
	lossy.LossWired, lossy.LossWireless, lossy.BloatProb = 0.3, 0.45, 0.5
	flat := DefaultConfig()
	flat.JitterFloor = 1
	rng := rand.New(rand.NewSource(48))
	campaign := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC).Unix()
	var times []int64
	for i := 0; i < 40; i++ {
		times = append(times,
			campaign+rng.Int63n(274*24*3600),
			-rng.Int63n(1<<40),
			-rng.Int63n(3*24*3600),
			campaign+int64(i)*3*3600,
			math.MaxInt64-rng.Int63n(1<<40),
			math.MinInt64+rng.Int63n(1<<40)+3600,
		)
	}
	var classes [4]int
	var allLost, multi int // folds of each kind seen
	for _, cfg := range []Config{DefaultConfig(), lossy, flat} {
		m, err := NewModel(cfg, 48)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range seededPaths(t, m, rng, 80) {
			classes[sp.src.Access]++
			for _, sec := range times {
				at := time.Unix(sec, 0)
				for n := 1; n <= 9; n++ {
					best, got := 0.0, false
					for rep := 0; rep < n; rep++ {
						ms, lost := sp.path.RTT(at.Add(time.Duration(rep) * time.Second))
						if !lost && (!got || ms < best) {
							best, got = ms, true
						}
					}
					if ms, lost := sp.path.MinRTT(at, n); lost != !got || math.Float64bits(ms) != math.Float64bits(best) {
						t.Fatalf("path %s at Unix %d, n=%d: MinRTT (%v, lost %v), RTT fold (%v, lost %v)",
							sp.src.ID, sec, n, ms, lost, best, !got)
					}
					if !got {
						allLost++
					} else if n > 1 {
						multi++
					}
				}
			}
		}
	}
	for a, c := range classes {
		if c == 0 {
			t.Fatalf("no path of access class %v", Access(a))
		}
	}
	if allLost == 0 || multi == 0 {
		t.Fatalf("all-lost folds %d, delivered multi-ping folds %d: both must occur", allLost, multi)
	}

	p := seededPaths(t, testModel(t), rng, 1)[0].path
	at := time.Unix(campaign, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		for _, n := range []int{0, 1, 3, 8, 9, 100} {
			p.MinRTT(at, n)
		}
	}); allocs != 0 {
		t.Fatalf("MinRTT allocated %v objects per run, want 0", allocs)
	}
}
