package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
)

// The /cdf body is ~100 KB of {"x":..,"p":..} points. Rendering it
// through encoding/json reflects over every point and was the largest
// stage left once the window itself composed from resident grids, so
// the body is appended by hand instead — pinned byte-identical to
// json.Marshal of the same points (TestCDFBodyMatchesEncodingJSON), and
// shared by the index and scan paths so the two cannot drift apart. It
// renders from counts, not points, into a pooled buffer: a warm /cdf
// fill leaves the collector nothing the size of its window.

// continentCounts is one continent's entry on /api/v1/cdf: its sample
// count and its cumulative counts over core.DefaultGrid, cum[k] the
// samples <= k+1 ms — the integers Dist.Curve divides by n.
type continentCounts struct {
	ct  geo.Continent
	n   int
	cum []uint64
}

// bodies keeps fill bodies' buffers: a /cdf body is ~100 KB, and a fill
// that allocated it afresh would hand the collector that much per
// request. serveFill takes one per fill and puts it back once the body
// is written.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// appendJSONFloat appends f the way encoding/json renders a float64:
// shortest round-trip digits, %f form except for exponents below -6 or
// from 21 up, where the exponent drops its padding zero. Values in
// [1e-6, 1) go through the appendCurveP kernel; the rest, and what the
// kernel declines, through strconv.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if out, ok := appendCurveP(b, f); ok {
		return out, nil
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("serve: unsupported JSON value %v", f)
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		// e-09 becomes e-9, as encoding/json cleans it up.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, nil
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), nil
}

// appendJSONString appends s as encoding/json quotes it. Bodies carry a
// handful of short strings, so this one defers to the library.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// curveX holds `{"x":K,"p":` for each K of core.DefaultGrid, 1..400;
// BenchmarkEncodeCDFBody runs about a tenth slower with strconv.AppendInt
// in its place.
var curveX = func() []string {
	t := make([]string, len(core.DefaultGrid()))
	for k := range t {
		t[k] = `{"x":` + strconv.Itoa(k+1) + `,"p":`
	}
	return t
}()

// appendCurve appends the curve of c as encoding/json renders the
// []stats.CDFPoint Dist.Curve sweeps over core.DefaultGrid: point k is
// {k+1, float64(c.cum[k]) / float64(c.n)}, its x taken from curveX. A
// curve's tail repeats its count wherever bins are empty, and so its P
// value; repeats copy the previous rendering instead of formatting
// again.
func appendCurve(b []byte, c continentCounts) ([]byte, error) {
	b = append(b, '[')
	var err error
	lastStart, lastEnd := 0, 0
	for k, cum := range c.cum {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, curveX[k]...)
		if k > 0 && cum == c.cum[k-1] {
			start := len(b)
			b = append(b, b[lastStart:lastEnd]...)
			lastStart, lastEnd = start, len(b)
		} else {
			lastStart = len(b)
			if b, err = appendJSONFloat(b, float64(cum)/float64(c.n)); err != nil {
				return b, err
			}
			lastEnd = len(b)
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendCDFBody appends the /api/v1/cdf response to b: the snapshot,
// the window bounds as RFC 3339 strings in UTC with any fractional
// seconds (absent when that side was open), and one entry per continent
// with samples. A window with no samples lists "continents":null, as
// the marshalled nil slice always has.
func appendCDFBody(b []byte, fingerprint string, since, until time.Time, curves []continentCounts) ([]byte, error) {
	// A 400-point curve renders to at most 400 × 39 bytes, with every P
	// 24 characters long.
	b = slices.Grow(b, 256+len(curves)*(16<<10))
	b = append(b, `{"snapshot":`...)
	b = appendJSONString(b, fingerprint)
	if !since.IsZero() {
		b = append(b, `,"since":`...)
		b = appendJSONString(b, since.Format(time.RFC3339Nano))
	}
	if !until.IsZero() {
		b = append(b, `,"until":`...)
		b = appendJSONString(b, until.Format(time.RFC3339Nano))
	}
	b = append(b, `,"continents":`...)
	if len(curves) == 0 {
		return append(b, "null}\n"...), nil
	}
	for i, c := range curves {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"continent":`...)
		b = appendJSONString(b, c.ct.String())
		b = append(b, `,"code":`...)
		b = appendJSONString(b, c.ct.Code())
		b = append(b, `,"samples":`...)
		b = strconv.AppendInt(b, int64(c.n), 10)
		b = append(b, `,"curve":`...)
		var err error
		if b, err = appendCurve(b, c); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}
