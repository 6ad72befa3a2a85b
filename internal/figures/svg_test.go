package figures

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
)

// validateSVG checks that the output parses as XML and counts polylines.
func validateSVG(t *testing.T, buf *bytes.Buffer) int {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(buf.Bytes()))
	polylines := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		if se, ok := tok.(xml.StartElement); ok && se.Name.Local == "polyline" {
			polylines++
		}
	}
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Fatal("output does not start with <svg")
	}
	return polylines
}

func TestChartValidation(t *testing.T) {
	c := &SVGChart{Width: 640, Height: 420}
	var buf bytes.Buffer
	if err := c.Render(&buf); err == nil {
		t.Error("empty chart accepted")
	}
	c.Series = []SVGSeries{{Name: "a", Color: "red", X: []float64{1}, Y: []float64{1, 2}}}
	if err := c.Render(&buf); err == nil {
		t.Error("mismatched series accepted")
	}
	c.Series = []SVGSeries{{Name: "a", Color: "red"}}
	if err := c.Render(&buf); err == nil {
		t.Error("empty series accepted")
	}
	c.Series = []SVGSeries{{Name: "a", Color: "red", X: []float64{1, 2}, Y: []float64{1, 2}}}
	c.Width = 10
	if err := c.Render(&buf); err == nil {
		t.Error("tiny chart accepted")
	}
}

func TestChartConstantSeries(t *testing.T) {
	// Degenerate ranges (flat series) must not divide by zero.
	c := &SVGChart{
		Title: "flat", Width: 640, Height: 420,
		Series: []SVGSeries{{Name: "flat", Color: "blue", X: []float64{5, 5, 5}, Y: []float64{2, 2, 2}}},
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if n := validateSVG(t, &buf); n != 1 {
		t.Errorf("%d polylines", n)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Error("NaN leaked into SVG")
	}
}

func TestFigureSVGs(t *testing.T) {
	f := dataset(t)

	var buf bytes.Buffer
	if err := Figure1SVG(&buf, Figure1()); err != nil {
		t.Fatal(err)
	}
	if n := validateSVG(t, &buf); n != 2 {
		t.Errorf("figure 1 has %d polylines, want 2", n)
	}

	rep := scanned(t, f)
	buf.Reset()
	if err := CDFSVG(&buf, rep.MinRTT, "Figure 5"); err != nil {
		t.Fatal(err)
	}
	if n := validateSVG(t, &buf); n != 6 {
		t.Errorf("figure 5 has %d polylines, want 6 continents", n)
	}

	buf.Reset()
	if err := Figure7SVG(&buf, rep.LastMile, f.cfg.Start); err != nil {
		t.Fatal(err)
	}
	if n := validateSVG(t, &buf); n != 2 {
		t.Errorf("figure 7 has %d polylines, want 2", n)
	}

	// Nil guards.
	if err := Figure1SVG(&buf, nil); err == nil {
		t.Error("nil series accepted")
	}
	if err := CDFSVG(&buf, nil, "x"); err == nil {
		t.Error("nil CDF accepted")
	}
	if err := Figure7SVG(&buf, nil, f.cfg.Start); err == nil {
		t.Error("nil last-mile accepted")
	}
}

func TestXMLEscape(t *testing.T) {
	c := &SVGChart{
		Title: `a <b> & "c"`, Width: 640, Height: 420,
		Series: []SVGSeries{{Name: "s<1>", Color: "red", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	validateSVG(t, &buf) // would fail to parse if unescaped
}
