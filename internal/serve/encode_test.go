package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/stats"
)

// cdfDTO and cdfBody are the /api/v1/cdf response shape as
// encoding/json declares it — what clients unmarshal into, and the
// reference the hand encoder is pinned to.
type cdfDTO struct {
	Continent string           `json:"continent"`
	Code      string           `json:"code"`
	Samples   int              `json:"samples"`
	Curve     []stats.CDFPoint `json:"curve"`
}

type cdfBody struct {
	Snapshot   string   `json:"snapshot"`
	Since      string   `json:"since,omitempty"`
	Until      string   `json:"until,omitempty"`
	Continents []cdfDTO `json:"continents"`
}

// TestJSONFloatMatchesEncodingJSON pins appendJSONFloat to json.Marshal
// over the values a curve can hold and the boundaries of both formats:
// 0 and 1, 1/N for N past 1e6 (exponent form), the 1e-6 and 1e21
// switch-overs, integral values either side of the integer fast path,
// negative zero, and random bit patterns.
func TestJSONFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, 1, -1, math.Copysign(0, -1), 0.5, 1.0 / 3, 400, 399.99999999999994,
		1e-6, 9.999999999999999e-7, 1.0 / 1000001, 1.0 / 3e6, 1.0 / 123456789, 1e-7, 5e-324,
		1e15, 1e15 - 1, 1e15 + 2, 1e20, 1e21, 9.999999999999999e20, 1.5e300, math.MaxFloat64,
		float64(1<<53 - 1), float64(1 << 53), -123456, 0.1 + 0.2,
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		switch i % 3 {
		case 0: // a CDF value: k/N
			n := 1 + rng.Intn(5_000_000)
			vals = append(vals, float64(rng.Intn(n+1))/float64(n))
		case 1:
			vals = append(vals, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(60)-30)))
		default:
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				vals = append(vals, f)
			}
		}
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJSONFloat(nil, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): encoder wrote %s, encoding/json %s", f, math.Float64bits(f), got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendJSONFloat(nil, f); err == nil {
			t.Fatalf("%v encoded; encoding/json rejects it", f)
		}
	}
}

// TestCDFBodyMatchesEncodingJSON pins the whole hand-rendered /cdf body
// to json.Marshal of cdfBody holding the points the counts divide out:
// open and closed windows, no continents (null), one sample, runs of
// repeated counts (empty bins), a curve that never reaches 1 on the
// grid, and sub-1e-6 steps.
func TestCDFBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	counts := func(n, end int) continentCounts {
		c := continentCounts{n: n, cum: make([]uint64, len(curveX))}
		cum := 0
		for k := range c.cum {
			if rng.Intn(3) > 0 && cum < end { // a third of the bins stay empty
				cum += rng.Intn(end - cum + 1)
			}
			c.cum[k] = uint64(cum)
		}
		return c
	}
	with := func(ct geo.Continent, c continentCounts) continentCounts {
		c.ct = ct
		return c
	}
	since := time.Date(2019, 9, 3, 4, 5, 6, 0, time.UTC)
	cases := []struct {
		since, until time.Time
		curves       []continentCounts
	}{
		{},
		{since: since},
		{since: since.Add(500 * time.Millisecond), until: since.Add(time.Hour + time.Nanosecond)},
		{until: since.Add(time.Hour), curves: []continentCounts{with(geo.Europe, counts(7, 7))}},
		{since: since, until: since.Add(72 * time.Hour), curves: []continentCounts{
			with(geo.Africa, counts(3_000_017, 3_000_017)),
			with(geo.Asia, counts(1, 1)),
			with(geo.Oceania, counts(2, 0)),
			with(geo.SouthAmerica, counts(12345, 12000)),
		}},
	}
	for i, c := range cases {
		ref := cdfBody{Snapshot: `fp-"<&>`}
		if !c.since.IsZero() {
			ref.Since = c.since.Format(time.RFC3339Nano)
		}
		if !c.until.IsZero() {
			ref.Until = c.until.Format(time.RFC3339Nano)
		}
		for _, cc := range c.curves {
			pts := make([]stats.CDFPoint, len(cc.cum))
			for k := range pts {
				pts[k] = stats.CDFPoint{X: float64(k + 1), P: float64(cc.cum[k]) / float64(cc.n)}
			}
			ref.Continents = append(ref.Continents, cdfDTO{
				Continent: cc.ct.String(), Code: cc.ct.Code(), Samples: cc.n, Curve: pts,
			})
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got, err := appendCDFBody([]byte("stale bytes"), ref.Snapshot, c.since, c.until, c.curves)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := bytes.CutPrefix(got, []byte("stale bytes")); !ok || !bytes.Equal(got, want) {
			t.Fatalf("case %d: hand-rendered body diverges from encoding/json:\n got %.300s\nwant %.300s", i, got, want)
		}
	}
}

// BenchmarkEncodeCDFBody renders a closed window's /cdf body into a
// reused buffer: six continents' 400-point curves whose P values are
// c/n over 10^5 to 3·10^6 samples, rising to 1 around the 300th bin as
// an RTT CDF does.
func BenchmarkEncodeCDFBody(b *testing.B) {
	rng := rand.New(rand.NewSource(40))
	var curves []continentCounts
	for ct := geo.Africa; ct <= geo.SouthAmerica; ct++ {
		n := 100_000 + rng.Intn(2_900_000)
		c := continentCounts{ct: ct, n: n, cum: make([]uint64, len(curveX))}
		cum := 0
		for k := range c.cum {
			cum = min(n, cum+rng.Intn(n/150+1))
			c.cum[k] = uint64(cum)
		}
		curves = append(curves, c)
	}
	since := time.Date(2019, 9, 3, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := appendCDFBody(benchBody[:0], "fp", since, since.Add(48*time.Hour), curves)
		if err != nil {
			b.Fatal(err)
		}
		benchBody = body
	}
}

var benchBody []byte
