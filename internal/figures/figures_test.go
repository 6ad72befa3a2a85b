package figures

import (
	"bytes"
	"context"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/atlas"
	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/world"
)

type fixture struct {
	w   *world.World
	mem *results.Memory
	cfg atlas.CampaignConfig
}

var cached *fixture

func dataset(t testing.TB) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	f, err := buildFixture(context.Background(), 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	cached = f
	return cached
}

// scanned folds the fixture campaign through the whole suite, the way
// every caller of Figures 4-8 gets its reports.
func scanned(t testing.TB, f *fixture) *core.SuiteReport {
	t.Helper()
	rep, err := core.ScanMemory(f.mem, f.w.Index, f.cfg.Start, 7*24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFigure1(t *testing.T) {
	series := Figure1()
	lines := figure1Lines(series)
	if len(series.Points) != 16 || len(lines) != 17 {
		t.Errorf("points=%d lines=%d", len(series.Points), len(lines))
	}
	if !strings.Contains(lines[0], "era") {
		t.Errorf("missing header: %q", lines[0])
	}
}

func TestFigure1Eras(t *testing.T) {
	series := Figure1()
	if len(series.Points) != lastYear-firstYear+1 {
		t.Fatalf("series has %d points", len(series.Points))
	}
	// Three eras appear in order.
	eras := series.Eras()
	if eras[2004] != EraCDN {
		t.Errorf("2004 era = %s, want CDN", eras[2004])
	}
	if eras[2012] != EraCloud {
		t.Errorf("2012 era = %s, want Cloud", eras[2012])
	}
	if eras[2019] != EraEdge {
		t.Errorf("2019 era = %s, want Edge", eras[2019])
	}
	// Era transitions are monotone: CDN* Cloud* Edge*.
	order := map[Era]int{EraCDN: 0, EraCloud: 1, EraEdge: 2}
	prev := 0
	for _, p := range series.Points {
		cur := order[eras[p.Year]]
		if cur < prev {
			t.Fatalf("era regressed at %d: %s", p.Year, eras[p.Year])
		}
		prev = cur
	}
	if _, err := series.EraOf(1999); err == nil {
		t.Error("out-of-series year accepted")
	}
}

func TestFigure2(t *testing.T) {
	lines, err := Figure2(apps.Paper())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"Q1", "Q2", "Q3", "Q4", "AR/VR", "Smart home"} {
		if !strings.Contains(joined, want) {
			t.Errorf("figure 2 output missing %q", want)
		}
	}
	if _, err := Figure2(nil); err == nil {
		t.Error("nil catalog accepted")
	}
}

func TestFigure3(t *testing.T) {
	f := dataset(t)
	a, err := Figure3a(f.w.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a[0], "101 regions, 7 providers, 21 countries") {
		t.Errorf("3a header = %q", a[0])
	}
	b, err := Figure3b(f.w.Probes)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b[0], "public probes") {
		t.Errorf("3b header = %q", b[0])
	}
	if _, err := Figure3a(nil); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := Figure3b(nil); err == nil {
		t.Error("nil population accepted")
	}
}

func TestFigures4Through8(t *testing.T) {
	f := dataset(t)
	rep := scanned(t, f)
	rep4, lines4 := rep.Proximity, Figure4Lines(rep.Proximity)
	if len(lines4) != len(rep4.Rows)+1 {
		t.Errorf("figure 4: %d lines for %d rows", len(lines4), len(rep4.Rows))
	}
	rep5 := rep.MinRTT
	lines5, err := CDFLines(rep5)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines5) != len(rep5.Continents()) {
		t.Errorf("figure 5: %d lines", len(lines5))
	}
	if !strings.Contains(lines5[0], "P(<=20ms)") {
		t.Errorf("figure 5 missing MTP mark: %q", lines5[0])
	}
	lines6, err := CDFLines(rep.FullDist)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines6) == 0 {
		t.Error("figure 6 empty")
	}
	rep7 := rep.LastMile
	lines7, err := Figure7Lines(rep7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lines7[0], "ratio") {
		t.Errorf("figure 7 header = %q", lines7[0])
	}
	rep8, lines8, err := Figure8(rep7, apps.Paper())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep8.InZone()) == 0 {
		t.Error("figure 8 zone empty")
	}
	if !strings.Contains(lines8[0], "feasibility zone") {
		t.Errorf("figure 8 header = %q", lines8[0])
	}
	if _, _, err := Figure8(nil, nil); err == nil {
		t.Error("nil figure 8 inputs accepted")
	}
}

func TestNames(t *testing.T) {
	if got := len(Names()); got != 9 {
		t.Errorf("Names() has %d entries", got)
	}
}

// TestTable renders every form of every entry from one Inputs: each
// entry's text equals its figure function's, a dataset figure reads the
// world and every -fig name resolves.
func TestTable(t *testing.T) {
	f := dataset(t)
	in := &Inputs{World: f.w, Report: scanned(t, f), Start: f.cfg.Start}
	for _, name := range Names() {
		fig, ok := Lookup(name)
		if !ok || fig.Name != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, fig, ok)
		}
		if fig.Passes != 0 && !fig.World {
			t.Errorf("figure %s reads passes but not the world", name)
		}
		lines, err := fig.Lines(in)
		if err != nil || len(lines) == 0 {
			t.Fatalf("figure %s: %d lines, %v", name, len(lines), err)
		}
		for _, form := range []func(io.Writer, *Inputs) error{fig.CSV, fig.SVG} {
			if form == nil {
				continue
			}
			var buf bytes.Buffer
			if err := form(&buf, in); err != nil || buf.Len() == 0 {
				t.Errorf("figure %s: %d form bytes, %v", name, buf.Len(), err)
			}
		}
	}
	if _, ok := Lookup("9"); ok {
		t.Error("Lookup found figure 9")
	}
	want := figure1Lines(Figure1())
	got, _ := Table[0].Lines(in)
	want4 := Figure4Lines(in.Report.Proximity)
	fig4, _ := Lookup("4")
	got4, _ := fig4.Lines(in)
	if !slices.Equal(got, want) || !slices.Equal(got4, want4) {
		t.Error("table text differs from the figure functions'")
	}
}

// TestHeadlineNumbers cross-checks the figure pipeline against the paper's
// headline claims on the small fixture (shape, not absolutes).
func TestHeadlineNumbers(t *testing.T) {
	f := dataset(t)
	rep := scanned(t, f)
	bands := rep.Proximity.CountByBand()
	if bands[core.BandSub10] == 0 {
		t.Error("no sub-10ms countries")
	}
	ratio, err := rep.LastMile.MedianRatio()
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.5 {
		t.Errorf("wireless/wired = %.2f, want the paper's ~2.5x shape", ratio)
	}
}
