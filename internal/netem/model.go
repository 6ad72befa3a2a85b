// Package netem is the wide-area network latency model that substitutes for
// the real Internet between RIPE-Atlas-style probes and cloud datacenters.
//
// An RTT sample decomposes, following the paper's own attribution (§4.3), as
//
//	RTT = propagation x path-stretch + transit + last-mile + bufferbloat
//
// with light-in-fiber propagation over the great circle, per-provider path
// stretch (private backbones are straighter than public transit), a transit
// penalty graded by the country's infrastructure tier, wired/wireless
// last-mile access distributions, a diurnal load cycle, minutes-long
// bufferbloat episodes on wireless paths, and packet loss. All draws are
// keyed by (seed, path, time): re-running a campaign reproduces its dataset
// exactly.
package netem

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
)

// Access classifies a probe's last-mile link, mirroring the RIPE Atlas user
// tags the paper filters on (§4.3: ethernet/broadband vs lte/wifi/wlan).
type Access uint8

// Access classes.
const (
	_              Access = iota // the zero value is unclassified
	AccessWired                  // ethernet, broadband, fibre
	AccessWireless               // wifi, wlan, lte
	AccessCore                   // datacenter/IXP-hosted: no residential last mile
)

// String names the access class.
func (a Access) String() string {
	switch a {
	case AccessWired:
		return "wired"
	case AccessWireless:
		return "wireless"
	case AccessCore:
		return "core"
	default:
		return "unknown"
	}
}

// Site is the probe-side endpoint of a path.
type Site struct {
	ID        string        // stable identifier, part of the path key
	Location  geo.Point     // probe coordinates
	Continent geo.Continent // for inter-continental detour detection
	Tier      geo.Tier      // country infrastructure tier
	Access    Access        // last-mile class
}

// Target is the datacenter-side endpoint of a path.
type Target struct {
	ID        string        // stable identifier, part of the path key
	Location  geo.Point     // datacenter coordinates
	Continent geo.Continent // for inter-continental detour detection
	Private   bool          // provider runs a private backbone
}

// Range is a [Lo, Hi) interval of milliseconds (or a unitless factor band).
type Range struct{ Lo, Hi float64 }

func (r Range) valid() bool { return r.Lo >= 0 && r.Hi >= r.Lo }

// Config holds the model's calibration knobs. DESIGN.md §5 records the
// published measurements each default is pinned to.
type Config struct {
	// FiberKmPerMs is the one-way distance light covers per millisecond in
	// fiber (~2/3 c = 200 km/ms).
	FiberKmPerMs float64
	// StretchPrivate and StretchPublic are the path-stretch factor bands for
	// private-backbone and public-transit providers.
	StretchPrivate, StretchPublic Range
	// InterContinentStretch is the extra stretch added when source and
	// destination are on different continents (submarine-cable detours).
	InterContinentStretch Range
	// TransitByTier is the per-sample transit penalty band (ms) indexed by
	// country tier 1..4.
	TransitByTier [5]Range
	// LastMileWired and LastMileWireless are the access-link RTT
	// contribution bands (ms). Core sites have none.
	LastMileWired, LastMileWireless Range
	// BloatProb is the probability that a 10-minute window is a bufferbloat
	// episode on a wireless path; BloatWiredProb the (much smaller) wired
	// equivalent; BloatMeanMs the mean episode magnitude.
	BloatProb, BloatWiredProb, BloatMeanMs float64
	// DiurnalAmpByTier scales the evening-peak load term per tier (fraction
	// of transit added at peak).
	DiurnalAmpByTier [5]float64
	// LossWired and LossWireless are base packet-loss probabilities;
	// LossTierStep adds per tier above 1.
	LossWired, LossWireless, LossTierStep float64
	// ProcessingMs is the fixed endpoint processing floor added to every
	// sample.
	ProcessingMs float64
	// UplinkMbpsWired, UplinkMbpsWireless and UplinkMbpsCore are the
	// access-link upstream capacities used for serialization delay of
	// payload-carrying packets.
	UplinkMbpsWired, UplinkMbpsWireless, UplinkMbpsCore float64
	// JitterFloor clamps the multiplicative queueing-noise factor from
	// below, bounding how far a lucky sample can dip under the typical
	// path cost. Without it, a nine-month campaign's per-path minimum
	// washes out the transit penalty entirely.
	JitterFloor float64
}

// DefaultConfig returns the calibration used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		FiberKmPerMs:          200,
		StretchPrivate:        Range{1.15, 1.55},
		StretchPublic:         Range{1.35, 2.30},
		InterContinentStretch: Range{0.10, 0.35},
		TransitByTier: [5]Range{
			{},         // unused index 0
			{0.5, 3.5}, // tier 1: dense peering
			{2.0, 9.0}, // tier 2
			{12, 45},   // tier 3
			{55, 140},  // tier 4: severely under-served
		},
		LastMileWired:      Range{1.5, 8},
		LastMileWireless:   Range{11, 38},
		BloatProb:          0.06,
		BloatWiredProb:     0.004,
		BloatMeanMs:        140,
		DiurnalAmpByTier:   [5]float64{0, 0.15, 0.25, 0.45, 0.70},
		LossWired:          0.004,
		LossWireless:       0.02,
		LossTierStep:       0.006,
		ProcessingMs:       0.3,
		JitterFloor:        0.8,
		UplinkMbpsWired:    50,
		UplinkMbpsWireless: 20,
		UplinkMbpsCore:     1000,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.FiberKmPerMs <= 0 {
		return fmt.Errorf("netem: FiberKmPerMs must be positive, got %v", c.FiberKmPerMs)
	}
	for name, r := range map[string]Range{
		"StretchPrivate":        c.StretchPrivate,
		"StretchPublic":         c.StretchPublic,
		"InterContinentStretch": c.InterContinentStretch,
		"LastMileWired":         c.LastMileWired,
		"LastMileWireless":      c.LastMileWireless,
	} {
		if !r.valid() {
			return fmt.Errorf("netem: invalid range %s=%+v", name, r)
		}
	}
	if c.StretchPrivate.Lo < 1 || c.StretchPublic.Lo < 1 {
		return fmt.Errorf("netem: path stretch below 1 violates physics")
	}
	for t := 1; t <= 4; t++ {
		if !c.TransitByTier[t].valid() {
			return fmt.Errorf("netem: invalid TransitByTier[%d]=%+v", t, c.TransitByTier[t])
		}
	}
	for _, p := range []float64{c.BloatProb, c.BloatWiredProb, c.LossWired, c.LossWireless, c.LossTierStep} {
		if p < 0 || p > 1 {
			return fmt.Errorf("netem: probability %v out of [0,1]", p)
		}
	}
	if c.BloatMeanMs < 0 || c.ProcessingMs < 0 {
		return fmt.Errorf("netem: negative magnitude")
	}
	if c.JitterFloor < 0 || c.JitterFloor > 1 {
		return fmt.Errorf("netem: jitter floor %v out of [0,1]", c.JitterFloor)
	}
	if c.UplinkMbpsWired <= 0 || c.UplinkMbpsWireless <= 0 || c.UplinkMbpsCore <= 0 {
		return fmt.Errorf("netem: uplink capacities must be positive")
	}
	return nil
}

// Model derives deterministic per-path parameters and samples RTTs.
type Model struct {
	cfg  Config
	seed uint64
}

// NewModel validates cfg and builds a model. Two models with the same cfg
// and seed produce identical samples.
func NewModel(cfg Config, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, seed: seed}, nil
}

// Path captures the fixed characteristics of one probe-to-datacenter route.
type Path struct {
	cfg        *Config
	key        uint64
	src        Site
	dst        Target
	propMs     float64 // propagation RTT including stretch
	transit    Range   // per-sample transit band
	lmBase     float64 // last-mile base (path constant)
	lmJit      float64 // last-mile per-sample jitter span
	bloatP     float64
	lossP      float64
	diurnal    float64
	uplinkMbps float64
}

// Path derives the route between src and dst. The derivation is
// deterministic in (model seed, src.ID, dst.ID).
func (m *Model) Path(src Site, dst Target) (*Path, error) {
	if src.ID == "" || dst.ID == "" {
		return nil, fmt.Errorf("netem: path endpoints need IDs")
	}
	if !src.Location.Valid() || !dst.Location.Valid() {
		return nil, fmt.Errorf("netem: invalid endpoint location")
	}
	if src.Tier < geo.Tier1 || src.Tier > geo.Tier4 {
		return nil, fmt.Errorf("netem: site %s has invalid tier %d", src.ID, src.Tier)
	}
	key := newRNG(m.seed, hash64(src.ID), hash64(dst.ID)).next()
	r := newRNG(m.seed, key, 1)

	band := m.cfg.StretchPublic
	if dst.Private {
		band = m.cfg.StretchPrivate
	}
	stretch := r.inRange(band.Lo, band.Hi)
	if src.Continent != dst.Continent {
		stretch += r.inRange(m.cfg.InterContinentStretch.Lo, m.cfg.InterContinentStretch.Hi)
	}
	distKm := geo.DistanceKm(src.Location, dst.Location)
	propMs := 2 * distKm / m.cfg.FiberKmPerMs * stretch

	p := &Path{
		cfg:     &m.cfg,
		key:     key,
		src:     src,
		dst:     dst,
		propMs:  propMs,
		transit: m.cfg.TransitByTier[src.Tier],
		diurnal: m.cfg.DiurnalAmpByTier[src.Tier],
	}

	switch src.Access {
	case AccessWireless:
		lm := m.cfg.LastMileWireless
		p.lmBase = r.inRange(lm.Lo, (lm.Lo+lm.Hi)/2)
		p.lmJit = lm.Hi - p.lmBase
		p.bloatP = m.cfg.BloatProb
		p.lossP = m.cfg.LossWireless
	case AccessCore:
		p.lmBase, p.lmJit = 0, 0
		p.bloatP = 0
		p.lossP = m.cfg.LossWired / 2
	default: // wired and unknown default to wired behaviour
		lm := m.cfg.LastMileWired
		p.lmBase = r.inRange(lm.Lo, (lm.Lo+lm.Hi)/2)
		p.lmJit = lm.Hi - p.lmBase
		p.bloatP = m.cfg.BloatWiredProb
		p.lossP = m.cfg.LossWired
	}
	switch src.Access {
	case AccessWireless:
		p.uplinkMbps = m.cfg.UplinkMbpsWireless
	case AccessCore:
		p.uplinkMbps = m.cfg.UplinkMbpsCore
	default:
		p.uplinkMbps = m.cfg.UplinkMbpsWired
	}
	p.lossP += float64(src.Tier-1) * m.cfg.LossTierStep
	if p.lossP > 0.5 {
		p.lossP = 0.5
	}
	return p, nil
}

// SerializationMs returns the time to push a payload of the given size
// through the probe's access uplink — the size-dependent share of a
// packet's delay.
func (p *Path) SerializationMs(payloadBytes int) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	return float64(payloadBytes) * 8 / (p.uplinkMbps * 1000)
}

// DistanceKm returns the great-circle endpoint distance.
func (p *Path) DistanceKm() float64 {
	return geo.DistanceKm(p.src.Location, p.dst.Location)
}

// bloatWindow is the wall-clock granularity of bufferbloat episodes; the
// paper cites queue build-ups "lasting several seconds" to minutes (§5).
const bloatWindow = 10 * time.Minute

// Breakdown decomposes one RTT sample into the components the paper's
// §4.3 ("Where is the Delay?") attributes latency to. Jitter is already
// applied to the queueing components; TotalMs is their sum.
type Breakdown struct {
	PropagationMs float64 // stretched light-in-fiber propagation
	TransitMs     float64 // tier-graded transit/peering penalty (with diurnal load)
	LastMileMs    float64 // access-link contribution
	BloatMs       float64 // bufferbloat episode share, if any
	ProcessingMs  float64 // endpoint processing floor
	TotalMs       float64
	Lost          bool
}

// RTT samples the path at time t. It returns the round-trip time and
// whether the packet was lost. Deterministic in (path, t).
func (p *Path) RTT(t time.Time) (ms float64, lost bool) {
	b := p.Sample(t)
	return b.TotalMs, b.Lost
}

// Sample draws the full component breakdown at time t. RTT(t) is its
// TotalMs; both are deterministic in (path, t).
func (p *Path) Sample(t time.Time) Breakdown {
	r := newRNG(p.key, uint64(t.Unix()), 2)
	if r.float64() < p.lossP {
		return Breakdown{Lost: true}
	}
	transit := r.inRange(p.transit.Lo, p.transit.Hi)
	// Evening congestion peak in the probe's local time, scaled by tier.
	peak := diurnalPeak(float64(t.Unix())/3600 + p.src.Location.Lon/15 + 48)
	transit *= 1 + p.diurnal*peak*r.float64()

	lastMile := p.lmBase
	if p.lmJit > 0 {
		lastMile += p.lmJit * r.float64() * r.float64() // skew toward base
	}

	// Bufferbloat episodes are keyed by coarse time window so consecutive
	// samples inside an episode share the spike.
	bloat := 0.0
	win := uint64(t.Unix() / int64(bloatWindow/time.Second))
	wr := newRNG(p.key, win, 3)
	if p.bloatP > 0 && wr.float64() < p.bloatP {
		bloat = wr.expMs(p.cfg.BloatMeanMs) * (0.5 + 0.5*r.float64())
	}

	// Multiplicative noise applies to the queueing components only;
	// propagation is a hard floor, and the jitter floor bounds how far a
	// lucky draw can undercut the path's typical cost.
	jitter := r.lognormal(0, 0.15)
	if jitter < p.cfg.JitterFloor {
		jitter = p.cfg.JitterFloor
	}
	b := Breakdown{
		PropagationMs: p.propMs,
		TransitMs:     transit * jitter,
		LastMileMs:    lastMile * jitter,
		BloatMs:       bloat * jitter,
		ProcessingMs:  p.cfg.ProcessingMs,
	}
	b.TotalMs = b.PropagationMs + b.TransitMs + b.LastMileMs + b.BloatMs + b.ProcessingMs
	return b
}

// diurnalPeak is max(0, sin((h-8)/12·π)) for the local hour h = x mod 24:
// zero outside 8-20h, peaking at 14h. The sine is skipped only where it
// is ≤ 0 beyond doubt — an argument in (−π+ε, 0] or [π+ε, 4π/3), ε far
// above math.Sin's error — so the result is bit-identical to computing
// it. A campaign's hours map to [−2π/3, 4π/3); the negative hours
// math.Mod returns before 1970 reach below −π, where the sine is positive.
func diurnalPeak(x float64) float64 {
	const eps = 1e-9
	theta := (mod24(x) - 8) / 12 * math.Pi
	if theta > -math.Pi+eps && theta <= 0 || theta >= math.Pi+eps {
		return 0
	}
	return math.Max(0, math.Sin(theta))
}

// mod24 is math.Mod(x, 24), bit for bit, without its frexp/ldexp loop
// where that is safe. For 0 < x < 2^52 the floor q of the rounded x/24
// is the true quotient's: below 24(q+1), x is at least ulp(x) short of
// it, and ulp(x)/24 exceeds half the float spacing below q+1 (ulp(x) ≥
// 16·ulp(q+1) once q ≥ 2; q < 2 holds by inspection), so x/24 never
// rounds up to q+1. Then 24q is exact and so is x−24q (Sterbenz).
// Elsewhere — ±0, negative hours (times before 1970 on the live path),
// x ≥ 2^52, NaN — math.Mod keeps its sign and edge rules.
func mod24(x float64) float64 {
	if !(x > 0 && x < 1<<52) {
		return math.Mod(x, 24)
	}
	return x - 24*math.Floor(x/24)
}
