package bandwidth

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/apps"
)

func TestDeploymentValidation(t *testing.T) {
	good := Deployment{Entities: 10, GBPerEntityDay: 1, Reduction: 0.5, BackhaulMbps: 100}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Deployment{
		{Entities: 0, GBPerEntityDay: 1, BackhaulMbps: 1},
		{Entities: 1, GBPerEntityDay: -1, BackhaulMbps: 1},
		{Entities: 1, GBPerEntityDay: 1, Reduction: 1.5, BackhaulMbps: 1},
		{Entities: 1, GBPerEntityDay: 1, Reduction: -0.1, BackhaulMbps: 1},
		{Entities: 1, GBPerEntityDay: 1, BackhaulMbps: 0},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid deployment accepted", i)
		}
	}
}

func TestDemandArithmetic(t *testing.T) {
	// 1000 entities x 1 GB/day = 8e6 Mbit/day / 86400 s ~ 92.6 Mbps.
	d := Deployment{Entities: 1000, GBPerEntityDay: 1, Reduction: 0.9, BackhaulMbps: 100}
	if got := d.DemandMbps(); math.Abs(got-92.59) > 0.1 {
		t.Errorf("DemandMbps = %v, want ~92.6", got)
	}
	if got := d.EdgeDemandMbps(); math.Abs(got-9.259) > 0.05 {
		t.Errorf("EdgeDemandMbps = %v, want ~9.26", got)
	}
	if got := d.Utilization(false); math.Abs(got-0.9259) > 0.01 {
		t.Errorf("raw utilization = %v", got)
	}
	if got := d.Utilization(true); got >= d.Utilization(false) {
		t.Error("edge did not reduce utilization")
	}
}

func TestBreakEvenNearPaperThreshold(t *testing.T) {
	// §5: "we estimate 1GB/entity data generation to be a fitting threshold".
	// On the reference metro (100k entities, 10 Gbps), full utilization is
	// reached near 1 GB/entity/day.
	got, err := BreakEvenGBPerEntity(Metro(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.5 || got > 2.0 {
		t.Errorf("break-even = %.2f GB/entity, paper threshold is ~1", got)
	}
	if _, err := BreakEvenGBPerEntity(Metro(), 0); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := BreakEvenGBPerEntity(Deployment{}, 1); err == nil {
		t.Error("invalid deployment accepted")
	}
}

func TestBreakEvenProperty(t *testing.T) {
	// A deployment producing exactly the break-even volume hits exactly the
	// target utilization.
	prop := func(entitiesRaw uint16, backhaulRaw uint16, targetRaw uint8) bool {
		entities := int(entitiesRaw%10000) + 1
		backhaul := float64(backhaulRaw)*10 + 1
		target := 0.1 + float64(targetRaw%20)/10 // 0.1 .. 2.0
		d := Deployment{Entities: entities, BackhaulMbps: backhaul}
		be, err := BreakEvenGBPerEntity(d, target)
		if err != nil {
			return false
		}
		d.GBPerEntityDay = be
		return math.Abs(d.Utilization(false)-target) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJustifyCatalog(t *testing.T) {
	rep, err := Justify(apps.Paper(), Metro(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(apps.Paper().All()) {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	// Heavy producers: traffic cameras congest the backhaul without edge
	// aggregation; the edge's 95% reduction averts it.
	cam := appRow(t, rep, "Traffic camera monitoring")
	if cam.RawUtilization <= 1 {
		t.Errorf("traffic cameras util=%v, want congestion", cam.RawUtilization)
	}
	if !cam.EdgeHelps {
		t.Error("edge should avert camera congestion")
	}
	// Light producers: smart homes never congest; edge aggregation buys
	// nothing (the paper's Q4 argument).
	home := appRow(t, rep, "Smart home")
	if home.RawUtilization > 0.5 || home.EdgeHelps {
		t.Errorf("smart home row = %+v", home)
	}
	// Autonomous vehicles produce so much that even the edge cannot keep a
	// full fleet's raw share under the metro backhaul.
	av := appRow(t, rep, "Autonomous vehicles")
	if av.RawUtilization < 10 {
		t.Errorf("AV util=%v, want massive congestion", av.RawUtilization)
	}
	// Rows are sorted by utilization, descending.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i-1].RawUtilization < rep.Rows[i].RawUtilization {
			t.Fatal("rows not sorted")
		}
	}
	if lines := rep.Format(); len(lines) != len(rep.Rows)+1 {
		t.Errorf("Format lines = %d", len(lines))
	}
}

func TestJustifyValidation(t *testing.T) {
	if _, err := Justify(nil, Metro(), 0.5); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := Justify(apps.Paper(), Metro(), 1.5); err == nil {
		t.Error("bad reduction accepted")
	}
	if _, err := Justify(apps.Paper(), Deployment{}, 0.5); err == nil {
		t.Error("invalid reference accepted")
	}
	if _, err := Justify(apps.Paper(), Metro(), 0.5); err != nil {
		t.Fatal(err)
	}
}

// appRow finds one application's row.
func appRow(t *testing.T, rep *Report, app string) AppRow {
	t.Helper()
	for _, row := range rep.Rows {
		if row.App == app {
			return row
		}
	}
	t.Fatalf("%s missing", app)
	return AppRow{}
}
