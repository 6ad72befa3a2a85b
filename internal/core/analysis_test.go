package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/results"
)

// fixture bundles a generated campaign dataset with its index.
type fixture struct {
	pop *probe.Population
	idx *Index
	mem *results.Memory
	cfg atlas.CampaignConfig
}

var cached *fixture

// dataset builds (once) a month-long campaign over ~600 probes.
func dataset(t testing.TB) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	db := geo.World()
	cat, err := cloud.Deployment(db)
	if err != nil {
		t.Fatal(err)
	}
	gen := probe.DefaultGenConfig()
	gen.Count = 1500
	pop, err := probe.Generate(db, gen)
	if err != nil {
		t.Fatal(err)
	}
	model, err := netem.NewModel(netem.DefaultConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := atlas.NewPlatform(pop, cat, model)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(pop, db)
	if err != nil {
		t.Fatal(err)
	}
	var mem results.Memory
	cfg := atlas.TestCampaign()
	if _, err := platform.RunCampaign(context.Background(), cfg, mem.Add); err != nil {
		t.Fatal(err)
	}
	cached = &fixture{pop: pop, idx: idx, mem: &mem, cfg: cfg}
	return cached
}

// scanned runs the in-memory entry point over the fixture, restricted to
// passes, with Figure 7 bins of the given width.
func scanned(t testing.TB, f *fixture, binWidth time.Duration, passes PassSet) *SuiteReport {
	t.Helper()
	rep, err := ScanMemory(f.mem, f.idx, f.cfg.Start, binWidth, passes)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestIndexValidation(t *testing.T) {
	f := dataset(t)
	if _, err := NewIndex(nil, geo.World()); err == nil {
		t.Error("nil population accepted")
	}
	if _, err := NewIndex(f.pop, nil); err == nil {
		t.Error("nil db accepted")
	}
	// Privileged probes are not indexed.
	for _, p := range f.pop.All() {
		if p.Privileged() && f.idx.Known(p.ID) {
			t.Fatalf("privileged probe %d indexed", p.ID)
		}
		if !p.Privileged() && !f.idx.Known(p.ID) {
			t.Fatalf("public probe %d missing from index", p.ID)
		}
	}
	if f.idx.CountryName("DE") != "Germany" {
		t.Errorf("CountryName(DE) = %q", f.idx.CountryName("DE"))
	}
	if f.idx.CountryName("ZZ") != "ZZ" {
		t.Errorf("unknown country name = %q", f.idx.CountryName("ZZ"))
	}
}

func TestThresholds(t *testing.T) {
	ths := Thresholds()
	if len(ths) != 3 || ths[0].Ms != MTPms || ths[1].Ms != PLms || ths[2].Ms != HRTms {
		t.Errorf("Thresholds() = %v", ths)
	}
	if got := Supports(5); len(got) != 3 {
		t.Errorf("5ms supports %v", got)
	}
	if got := Supports(50); len(got) != 2 || got[0].Name != "PL" {
		t.Errorf("50ms supports %v", got)
	}
	if got := Supports(300); len(got) != 0 {
		t.Errorf("300ms supports %v", got)
	}
}

func TestBandOf(t *testing.T) {
	cases := map[float64]Band{
		5: BandSub10, 9.99: BandSub10, 10: Band10to20, 19.9: Band10to20,
		20: Band20to100, 99: Band20to100, 100: BandOver100, 500: BandOver100,
	}
	for ms, want := range cases {
		if got := BandOf(ms); got != want {
			t.Errorf("BandOf(%v) = %v, want %v", ms, got, want)
		}
	}
	if BandUnknown.String() != "no-data" || BandSub10.String() != "<10ms" {
		t.Error("Band.String mismatch")
	}
}

func TestProximityFigure4(t *testing.T) {
	f := dataset(t)
	rep := scanned(t, f, passBinWidth, PassProximity).Proximity
	nCountries := len(rep.Rows)
	if nCountries < 150 {
		t.Fatalf("proximity covers %d countries, want most of the world", nCountries)
	}
	// Figure 4 shape: a solid block of countries under 10 ms (paper: 32),
	// another tranche in 10-20 (paper: 21), and only a small set (mostly
	// Africa; paper: 16) beyond PL.
	bands := rep.CountByBand()
	if bands[BandSub10] < 10 {
		t.Errorf("only %d countries < 10ms", bands[BandSub10])
	}
	if bands[Band10to20] < 5 {
		t.Errorf("only %d countries in 10-20ms", bands[Band10to20])
	}
	over := bands[BandOver100]
	if over == 0 || over > nCountries/3 {
		t.Errorf("%d countries >= 100ms, want a small non-zero tail", over)
	}
	// DC-hosting countries must be in the best band.
	for _, iso := range []string{"DE", "US", "JP", "SG"} {
		row, ok := rep.Lookup(iso)
		if !ok {
			t.Fatalf("no proximity row for %s", iso)
		}
		if row.Band != BandSub10 {
			t.Errorf("%s min=%.1f band=%s, want <10ms (hosts datacenters)", iso, row.MinRTTms, row.Band)
		}
	}
	// The >=100ms tail is dominated by Africa.
	afOver := 0
	for _, row := range rep.Rows {
		if row.Band == BandOver100 && row.Continent == geo.Africa {
			afOver++
		}
	}
	if afOver*2 < over {
		t.Errorf("only %d/%d over-100ms countries are African", afOver, over)
	}
	// Rows are sorted ascending.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i-1].MinRTTms > rep.Rows[i].MinRTTms {
			t.Fatal("rows not sorted")
		}
	}
	if lines := rep.Format(); len(lines) != nCountries {
		t.Errorf("Format produced %d lines", len(lines))
	}
	if got := rep.CountWithin(100); got != nCountries-over {
		t.Errorf("CountWithin(100) = %d, want %d", got, nCountries-over)
	}
}

func TestMinRTTFigure5(t *testing.T) {
	f := dataset(t)
	rep := scanned(t, f, passBinWidth, PassMinRTT).MinRTT
	// All six continents appear.
	if got := len(rep.Continents()); got != 6 {
		t.Fatalf("CDF covers %d continents", got)
	}
	// Figure 5 shape: most EU and NA probes reach a cloud within MTP-ish
	// latency; Oceania within 50 ms; Africa/Latin America mostly within PL.
	eu, err := rep.FractionWithin(geo.Europe, MTPms)
	if err != nil {
		t.Fatal(err)
	}
	na, err := rep.FractionWithin(geo.NorthAmerica, MTPms)
	if err != nil {
		t.Fatal(err)
	}
	if eu < 0.55 {
		t.Errorf("EU within MTP = %.2f, paper reports ~0.8", eu)
	}
	// NA lands lower than the paper's ~0.8 because the census floor keeps
	// Caribbean/Central-American probes over-represented relative to the
	// real Atlas; the shape (NA far ahead of Africa/South America) holds.
	if na < 0.45 {
		t.Errorf("NA within MTP = %.2f, paper reports ~0.8", na)
	}
	oc, err := rep.FractionWithin(geo.Oceania, 50)
	if err != nil {
		t.Fatal(err)
	}
	if oc < 0.7 {
		t.Errorf("Oceania within 50ms = %.2f, paper reports ~1.0", oc)
	}
	af, err := rep.FractionWithin(geo.Africa, PLms)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := rep.FractionWithin(geo.SouthAmerica, PLms)
	if err != nil {
		t.Fatal(err)
	}
	if af < 0.5 || af > 0.98 {
		t.Errorf("Africa within PL = %.2f, paper reports ~0.75", af)
	}
	if sa < 0.6 {
		t.Errorf("South America within PL = %.2f, paper reports ~0.75+", sa)
	}
	// Ordering: Africa is the worst-connected continent.
	afMed, err := rep.Quantile(geo.Africa, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	euMed, err := rep.Quantile(geo.Europe, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if afMed < euMed*2 {
		t.Errorf("Africa median %.1f not clearly worse than Europe %.1f", afMed, euMed)
	}
	// Curve output matches FractionWithin.
	curve, err := rep.Curve(geo.Europe, []float64{MTPms})
	if err != nil || len(curve) != 1 || curve[0].P != eu {
		t.Errorf("Curve = %v, %v", curve, err)
	}
}

func TestFullDistributionFigure6(t *testing.T) {
	f := dataset(t)
	both := scanned(t, f, passBinWidth, PassFullDist|PassMinRTT)
	rep, minRep := both.FullDist, both.MinRTT
	// Figure 6 shape: >75% of NA/EU/OC samples below PL; the NA/EU top
	// quartile supports MTP.
	for _, ct := range []geo.Continent{geo.NorthAmerica, geo.Europe, geo.Oceania} {
		frac, err := rep.FractionWithin(ct, PLms)
		if err != nil {
			t.Fatal(err)
		}
		if frac < 0.75 {
			t.Errorf("%v samples within PL = %.2f, paper reports > 0.75", ct, frac)
		}
	}
	for _, ct := range []geo.Continent{geo.NorthAmerica, geo.Europe} {
		p25, err := rep.Quantile(ct, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if p25 > MTPms*1.5 {
			t.Errorf("%v p25 = %.1f ms, paper reports top quartile within MTP", ct, p25)
		}
	}
	// Africa is the worst; only a fraction of samples satisfy PL.
	af, err := rep.FractionWithin(geo.Africa, PLms)
	if err != nil {
		t.Fatal(err)
	}
	eu, err := rep.FractionWithin(geo.Europe, PLms)
	if err != nil {
		t.Fatal(err)
	}
	if af >= eu {
		t.Errorf("Africa (%.2f) not worse than Europe (%.2f)", af, eu)
	}
	// Full distribution sits at or above the per-probe minimum curve.
	for _, ct := range rep.Continents() {
		fullMed, err := rep.Quantile(ct, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		minMed, err := minRep.Quantile(ct, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if fullMed < minMed {
			t.Errorf("%v: full median %.1f below min-RTT median %.1f", ct, fullMed, minMed)
		}
	}
}

func TestLastMileFigure7(t *testing.T) {
	f := dataset(t)
	rep := scanned(t, f, 24*time.Hour, PassLastMile).LastMile
	if len(rep.Wired) < 25 || len(rep.Wireless) < 25 {
		t.Fatalf("series too short: wired=%d wireless=%d", len(rep.Wired), len(rep.Wireless))
	}
	ratio, err := rep.MedianRatio()
	if err != nil {
		t.Fatal(err)
	}
	// §4.3: wireless takes ~2.5x longer.
	if ratio < 1.5 || ratio > 4.5 {
		t.Errorf("wireless/wired ratio = %.2f, paper reports ~2.5", ratio)
	}
	added, err := rep.AddedLatencyMs()
	if err != nil {
		t.Fatal(err)
	}
	// §4.3: 10-40 ms added latency over wireless last miles.
	if added < 8 || added > 60 {
		t.Errorf("wireless adds %.1f ms, paper reports 10-40", added)
	}
	// Wireless is consistently worse day by day, not just on average.
	worse := 0
	nDays := len(rep.Wired)
	if len(rep.Wireless) < nDays {
		nDays = len(rep.Wireless)
	}
	for i := 0; i < nDays; i++ {
		if rep.Wireless[i].Median > rep.Wired[i].Median {
			worse++
		}
	}
	if float64(worse)/float64(nDays) < 0.9 {
		t.Errorf("wireless worse on only %d/%d days", worse, nDays)
	}
}

func TestAnalysisInputValidation(t *testing.T) {
	f := dataset(t)
	if _, err := ScanMemory(nil, f.idx, f.cfg.Start, passBinWidth, PassProximity); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := ScanMemory(f.mem, nil, f.cfg.Start, passBinWidth, PassMinRTT); err == nil {
		t.Error("nil index accepted")
	}
	if _, err := ScanMemory(nil, nil, f.cfg.Start, passBinWidth, PassFullDist); err == nil {
		t.Error("nil everything accepted")
	}
	if _, err := ScanMemory(f.mem, f.idx, f.cfg.Start, 0, PassLastMile); err == nil {
		t.Error("zero bin width accepted")
	}
	var empty results.Memory
	for _, passes := range []PassSet{0, PassProximity, PassMinRTT, PassFullDist, PassLastMile} {
		if _, err := ScanMemory(&empty, f.idx, f.cfg.Start, passBinWidth, passes); err == nil {
			t.Errorf("empty dataset accepted for passes %v", passes)
		}
	}
}

func TestAccessClassString(t *testing.T) {
	if AccessWired.String() != "wired" || AccessWireless.String() != "wireless" || AccessOther.String() != "other" {
		t.Error("AccessClass.String mismatch")
	}
}

// TestLastMileSignificance pins the on-demand KS test: no report carries
// it, so it is asked of the pass that folded the fixture.
func TestLastMileSignificance(t *testing.T) {
	f := dataset(t)
	p := NewNearestPass(f.idx, f.cfg.Start, passBinWidth)
	if err := f.mem.ForEachBlock(p.ObserveBlock); err != nil {
		t.Fatal(err)
	}
	res, err := p.Significance()
	if err != nil {
		t.Fatal(err)
	}
	// The wired/wireless gap is a real distributional difference.
	if !res.Different(0.001) {
		t.Errorf("wired vs wireless not significant: D=%.3f p=%.4f", res.D, res.P)
	}
	if res.D < 0.3 {
		t.Errorf("KS statistic %.3f implausibly small for a 2.5x gap", res.D)
	}
}
