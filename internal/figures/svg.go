package figures

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/core"
)

// SVGSeries is one polyline of a chart.
type SVGSeries struct {
	Name  string
	Color string // CSS color
	X, Y  []float64
}

// SVGChart is a minimal line-chart renderer (pure stdlib) used to emit the
// figures as vector graphics.
type SVGChart struct {
	Title          string
	XLabel, YLabel string
	Width, Height  int
	Series         []SVGSeries
}

// chart geometry.
const (
	marginLeft   = 60
	marginRight  = 20
	marginTop    = 36
	marginBottom = 46
)

// Render writes the chart as an SVG document.
func (c *SVGChart) Render(w io.Writer) error {
	if len(c.Series) == 0 {
		return errors.New("figures: chart has no series")
	}
	if c.Width <= marginLeft+marginRight || c.Height <= marginTop+marginBottom {
		return fmt.Errorf("figures: chart size %dx%d too small", c.Width, c.Height)
	}
	var xMin, xMax, yMin, yMax float64
	first := true
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("figures: series %q has %d x values for %d y values", s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return fmt.Errorf("figures: series %q is empty", s.Name)
		}
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				return fmt.Errorf("figures: series %q contains NaN", s.Name)
			}
			if first {
				xMin, xMax, yMin, yMax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xMin = math.Min(xMin, s.X[i])
			xMax = math.Max(xMax, s.X[i])
			yMin = math.Min(yMin, s.Y[i])
			yMax = math.Max(yMax, s.Y[i])
		}
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	plotW := float64(c.Width - marginLeft - marginRight)
	plotH := float64(c.Height - marginTop - marginBottom)
	px := func(x float64) float64 { return float64(marginLeft) + (x-xMin)/(xMax-xMin)*plotW }
	py := func(y float64) float64 { return float64(c.Height-marginBottom) - (y-yMin)/(yMax-yMin)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		c.Width, c.Height, c.Width, c.Height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", c.Width, c.Height)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`+"\n",
		marginLeft, xmlEscape(c.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, c.Height-marginBottom, c.Width-marginRight, c.Height-marginBottom)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, marginTop, marginLeft, c.Height-marginBottom)

	// Ticks: five per axis.
	for i := 0; i <= 4; i++ {
		fx := xMin + (xMax-xMin)*float64(i)/4
		fy := yMin + (yMax-yMin)*float64(i)/4
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`+"\n",
			px(fx), c.Height-marginBottom+14, formatTick(fx))
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
			marginLeft-6, py(fy)+3, formatTick(fy))
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
		float64(marginLeft)+plotW/2, c.Height-8, xmlEscape(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
		float64(marginTop)+plotH/2, float64(marginTop)+plotH/2, xmlEscape(c.YLabel))

	// Series polylines and legend.
	for i, s := range c.Series {
		var pts strings.Builder
		for j := range s.X {
			fmt.Fprintf(&pts, "%.1f,%.1f ", px(s.X[j]), py(s.Y[j]))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`+"\n",
			s.Color, strings.TrimSpace(pts.String()))
		lx := marginLeft + 10
		ly := marginTop + 8 + i*14
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			lx, ly, lx+18, ly, s.Color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">%s</text>`+"\n",
			lx+24, ly+3, xmlEscape(s.Name))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func formatTick(v float64) string {
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0fk", v/1000)
	}
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// continentColors is the fixed palette for per-continent curves.
var continentColors = []string{"#d62728", "#ff7f0e", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b"}

// CDFSVG renders a continent-grouped CDF (Figures 5 and 6) as SVG.
func CDFSVG(w io.Writer, rep *core.CDFReport, title string) error {
	if rep == nil {
		return errors.New("figures: nil report")
	}
	chart := &SVGChart{
		Title:  title,
		XLabel: "RTT (ms)",
		YLabel: "CDF",
		Width:  640,
		Height: 420,
	}
	grid := core.DefaultGrid()
	for i, ct := range rep.Continents() {
		curve, err := rep.Curve(ct, grid)
		if err != nil {
			return err
		}
		s := SVGSeries{Name: ct.String(), Color: continentColors[i%len(continentColors)]}
		for _, pt := range curve {
			s.X = append(s.X, pt.X)
			s.Y = append(s.Y, pt.P)
		}
		chart.Series = append(chart.Series, s)
	}
	return chart.Render(w)
}

// Figure1SVG renders the zeitgeist publication series.
func Figure1SVG(w io.Writer, s *Series) error {
	if s == nil {
		return errors.New("figures: nil series")
	}
	edge := SVGSeries{Name: "edge computing (pubs)", Color: "#1f77b4"}
	cloud := SVGSeries{Name: "cloud computing (pubs)", Color: "#d62728"}
	for _, p := range s.Points {
		edge.X = append(edge.X, float64(p.Year))
		edge.Y = append(edge.Y, float64(p.EdgePubs))
		cloud.X = append(cloud.X, float64(p.Year))
		cloud.Y = append(cloud.Y, float64(p.CloudPubs))
	}
	chart := &SVGChart{
		Title:  "Figure 1: publications per year",
		XLabel: "year",
		YLabel: "publications",
		Width:  640,
		Height: 420,
		Series: []SVGSeries{cloud, edge},
	}
	return chart.Render(w)
}

// Figure7SVG renders the wired/wireless weekly medians.
func Figure7SVG(w io.Writer, rep *core.LastMileReport, start time.Time) error {
	if rep == nil {
		return errors.New("figures: nil report")
	}
	wired := SVGSeries{Name: "wired", Color: "#1f77b4"}
	for _, p := range rep.Wired {
		wired.X = append(wired.X, p.Start.Sub(start).Hours()/24)
		wired.Y = append(wired.Y, p.Median)
	}
	wireless := SVGSeries{Name: "wireless", Color: "#d62728"}
	for _, p := range rep.Wireless {
		wireless.X = append(wireless.X, p.Start.Sub(start).Hours()/24)
		wireless.Y = append(wireless.Y, p.Median)
	}
	chart := &SVGChart{
		Title:  "Figure 7: wired vs wireless access RTT",
		XLabel: "day of campaign",
		YLabel: "median RTT (ms)",
		Width:  640,
		Height: 420,
		Series: []SVGSeries{wired, wireless},
	}
	return chart.Render(w)
}
