package apps

import (
	"strings"
	"testing"
)

func TestPaperCatalog(t *testing.T) {
	c := Paper()
	if n := len(c.All()); n < 14 {
		t.Errorf("catalog has %d apps, Figure 2 shows more", n)
	}
	// Every quadrant is populated.
	byQ := c.ByQuadrant()
	for _, q := range []Quadrant{Q1, Q2, Q3, Q4} {
		if len(byQ[q]) == 0 {
			t.Errorf("quadrant %v empty", q)
		}
	}
	// Spot-check the paper's canonical examples.
	cases := map[string]Quadrant{
		"Wearables":           Q1,
		"AR/VR":               Q2,
		"Autonomous vehicles": Q2,
		"Cloud gaming":        Q2,
		"Smart city":          Q3,
		"Smart home":          Q4,
		"Weather monitoring":  Q4,
	}
	for name, want := range cases {
		if got := paperApp(t, name).Quadrant(); got != want {
			t.Errorf("%s in %v, want %v", name, got, want)
		}
	}
}

// paperApp finds an application of the paper's catalog by name.
func paperApp(t *testing.T, name string) App {
	t.Helper()
	for _, a := range Paper().All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("%s missing from catalog", name)
	return App{}
}

func TestCatalogValidation(t *testing.T) {
	good := App{Name: "x", LatencyMs: Span{1, 10}, DataGBPerEntity: Span{0, 1}, MarketBUSD: 1}
	bad := []App{
		{},
		{Name: "x", LatencyMs: Span{10, 1}, DataGBPerEntity: Span{0, 1}},
		{Name: "x", LatencyMs: Span{0, 0}, DataGBPerEntity: Span{0, 1}},
		{Name: "x", LatencyMs: Span{1, 10}, DataGBPerEntity: Span{5, 1}},
		{Name: "x", LatencyMs: Span{1, 10}, DataGBPerEntity: Span{0, 1}, MarketBUSD: -1},
	}
	for i, a := range bad {
		if _, err := NewCatalog([]App{a}); err == nil {
			t.Errorf("case %d: invalid app accepted", i)
		}
	}
	if _, err := NewCatalog([]App{good, good}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := NewCatalog(nil); err == nil {
		t.Error("empty catalog accepted")
	}
}

func TestZoneValidation(t *testing.T) {
	if err := PaperZone().Validate(); err != nil {
		t.Fatalf("paper zone invalid: %v", err)
	}
	bad := []Zone{
		{LatencyFloorMs: 0, LatencyCeilMs: 250, BandwidthFloorGB: 1},
		{LatencyFloorMs: 250, LatencyCeilMs: 10, BandwidthFloorGB: 1},
		{LatencyFloorMs: 10, LatencyCeilMs: 250, BandwidthFloorGB: 0},
	}
	for i, z := range bad {
		if err := z.Validate(); err == nil {
			t.Errorf("case %d: invalid zone accepted", i)
		}
	}
	if _, err := DeriveZone(12, 250, 1); err != nil {
		t.Errorf("DeriveZone: %v", err)
	}
	if _, err := DeriveZone(300, 250, 1); err == nil {
		t.Error("inverted derived zone accepted")
	}
}

func TestFeasibilityFigure8(t *testing.T) {
	rep, err := Feasibility(Paper(), PaperZone())
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]bool{}
	for _, name := range rep.InZone() {
		in[name] = true
	}
	// §5: traffic camera monitoring and cloud gaming sit inside the zone.
	for _, name := range []string{"Traffic camera monitoring", "Cloud gaming"} {
		if !in[name] {
			t.Errorf("%s should be in the feasibility zone", name)
		}
	}
	// §5: the hyped drivers are NOT in the zone — autonomous vehicles are
	// too strict, wearables too light, smart cities too relaxed.
	for _, name := range []string{"AR/VR", "Autonomous vehicles", "Wearables", "Smart city", "Smart home", "Weather monitoring"} {
		if in[name] {
			t.Errorf("%s should be outside the feasibility zone", name)
		}
	}
	// §5: the in-zone market pales compared to the out-zone market.
	if rep.MarketInZone >= rep.MarketOutZone {
		t.Errorf("in-zone market $%gB >= out-zone $%gB; paper reports the opposite",
			rep.MarketInZone, rep.MarketOutZone)
	}
	if got := len(rep.Format()); got != len(Paper().All()) {
		t.Errorf("Format lines = %d", got)
	}
}

func TestEvaluateReasons(t *testing.T) {
	z := PaperZone()
	// Too strict: autonomous vehicles need < 10ms.
	av := paperApp(t, "Autonomous vehicles")
	v, err := z.Evaluate(av)
	if err != nil {
		t.Fatal(err)
	}
	if v.LatencyGain || v.InZone {
		t.Errorf("verdict = %+v, want latency-infeasible", v)
	}
	if len(v.Reasons) == 0 || !strings.Contains(v.Reasons[0], "floor") {
		t.Errorf("reasons = %v", v.Reasons)
	}
	// Too relaxed: weather monitoring is fine in the cloud and too light.
	wm := paperApp(t, "Weather monitoring")
	v, err = z.Evaluate(wm)
	if err != nil {
		t.Fatal(err)
	}
	if v.InZone || v.LatencyGain || v.BandwidthGain {
		t.Errorf("verdict = %+v", v)
	}
	if len(v.Reasons) != 2 {
		t.Errorf("want two reasons, got %v", v.Reasons)
	}
	// Errors propagate.
	if _, err := z.Evaluate(App{}); err == nil {
		t.Error("invalid app evaluated")
	}
	if _, err := (Zone{}).Evaluate(av); err == nil {
		t.Error("invalid zone evaluated")
	}
	if _, err := Feasibility(nil, z); err == nil {
		t.Error("nil catalog evaluated")
	}
}

func TestQuadrantString(t *testing.T) {
	for q, want := range map[Quadrant]string{Q1: "Q1", Q2: "Q2", Q3: "Q3", Q4: "Q4", 0: "unknown"} {
		if !strings.HasPrefix(q.String(), want) {
			t.Errorf("%d.String() = %q", q, q.String())
		}
	}
}
