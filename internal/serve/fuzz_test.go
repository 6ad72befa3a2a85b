package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"testing"
	"time"
)

// FuzzWindowParams sends arbitrary since/until/p/continent strings to
// /cdf and /quantile on an index-backed engine. Nothing may panic or
// answer 5xx, and every 200 body must equal the index-less engine's.
// Both engines bypass the read cache, so every request is a fill.
func FuzzWindowParams(f *testing.F) {
	fx := newFixture(f, 200)
	tailStart, dupStart := fx.appendBlocks(f)
	p := fx.newEnginePair(f)
	p.tixEng.SetCacheBypass(true)

	rfc := func(t time.Time) string { return t.Format(time.RFC3339) }
	// p = k/(n-1) lands on a rank exactly: n is Europe's sample count in
	// the duplicate tail.
	var body quantileBody
	w := get(p.scan, "/api/v1/quantile?p=0.5&continent=EU&since="+rfc(dupStart))
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || len(body.Continents) != 1 {
		f.Fatalf("duplicate tail: %v %s", err, w.Body.String())
	}
	n := body.Continents[0].Samples
	since, until := rfc(fx.cfg.Start.Add(26*time.Hour)), rfc(tailStart.Add(30*time.Minute))
	for _, seed := range [][4]string{
		{since, until, "0", ""},
		{since, until, "1", "EU"},
		{rfc(dupStart), "", fmt.Sprintf("%.17g", 3/float64(n-1)), "EU"},
		{rfc(tailStart.Add(time.Hour)), rfc(tailStart.Add(2 * time.Hour)), "0.5", "OC"}, // inside one block
		{rfc(tailStart), rfc(tailStart.Add(2 * time.Hour)), "0.99", ""},                 // exactly one covered block
		{"", "", "0.5", "AF"},
		{"2019-13-01T00:00:00Z", "x", "NaN", "Atlantis"},
		{"", "", "NaN", ""},
		{"0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "1e-300", "Oceania"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, since, until, prob, continent string) {
		q := url.Values{}
		for k, v := range map[string]string{"since": since, "until": until} {
			if v != "" {
				q.Set(k, v)
			}
		}
		cdf := "/api/v1/cdf?" + q.Encode()
		q.Set("p", prob)
		if continent != "" {
			q.Set("continent", continent)
		}
		for _, target := range []string{cdf, "/api/v1/quantile?" + q.Encode()} {
			wt := get(p.tix, target)
			if wt.Code >= 500 {
				t.Fatalf("%s: status %d: %s", target, wt.Code, wt.Body.String())
			}
			if wt.Code != http.StatusOK {
				continue
			}
			if ws := get(p.scan, target); ws.Code != http.StatusOK || !bytes.Equal(ws.Body.Bytes(), wt.Body.Bytes()) {
				t.Fatalf("%s: index engine answered 200, scan engine %d:\nscan: %.300s\ntix:  %.300s",
					target, ws.Code, ws.Body.String(), wt.Body.String())
			}
		}
	})
}

// FuzzJSONFloat holds appendJSONFloat, whose [1e-6, 1) values go
// through the curve-value kernel, to json.Marshal for any float64 bit
// pattern; NaN and the infinities must be errors.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, 1, 0.5, 1.0 / 3, 0.1, 2.0 / 3000017, 1e-6, 9.999999999999999e-7, 1e21, 1e15,
		math.Copysign(0, -1), math.MaxFloat64, 5e-324, math.NaN(), math.Inf(-1),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got, err := appendJSONFloat(nil, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if err == nil {
				t.Fatalf("%v encoded as %s; encoding/json rejects it", v, got)
			}
			return
		}
		want, jerr := json.Marshal(v)
		if err != nil || jerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): encoder wrote %s (%v), encoding/json %s (%v)", v, bits, got, err, want, jerr)
		}
	})
}
