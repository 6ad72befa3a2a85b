package atlas

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/results"
)

// smallPlatform builds a compact platform for tests: ~200 probes, full
// region catalog.
func smallPlatform(t testing.TB) *Platform {
	t.Helper()
	db := geo.World()
	cat, err := cloud.Deployment(db)
	if err != nil {
		t.Fatal(err)
	}
	cfg := probe.DefaultGenConfig()
	cfg.Count = 200
	pop, err := probe.Generate(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := netem.NewModel(netem.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(pop, cat, model)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlatformValidation(t *testing.T) {
	p := smallPlatform(t)
	if _, err := NewPlatform(nil, p.Catalog, p.Model); err == nil {
		t.Error("nil population accepted")
	}
	if _, err := NewPlatform(p.Population, nil, p.Model); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := NewPlatform(p.Population, p.Catalog, nil); err == nil {
		t.Error("nil model accepted")
	}
}

func TestTargetsFollowMethodology(t *testing.T) {
	p := smallPlatform(t)
	for _, pr := range p.Population.Public() {
		targets := p.Targets(pr)
		if len(targets) == 0 {
			t.Fatalf("probe %d (%v) has no targets", pr.ID, pr.Continent)
		}
		wantContinents := map[geo.Continent]bool{}
		for _, ct := range pr.Continent.MeasurementTargets() {
			wantContinents[ct] = true
		}
		for _, r := range targets {
			if !wantContinents[p.Catalog.Continent(r)] {
				t.Fatalf("probe %d on %v got out-of-methodology target %s on %v",
					pr.ID, pr.Continent, r.Addr(), p.Catalog.Continent(r))
			}
		}
	}
}

// TestPathCaching: a campaign's table keeps one path per pair. Racing
// first lookups of a pair collapse to one instance, a later lookup gets
// it again, and it equals by value what Platform.Path derives afresh; a
// region of another catalog has no cell and is derived on every
// lookup, not misfiled.
func TestPathCaching(t *testing.T) {
	p := smallPlatform(t)
	table := newPathTable(p)
	pr := p.Population.Public()[0]
	r := p.Targets(pr)[0]
	resolve := func(r *cloud.Region) *netem.Path {
		job := [1]pathJob{{pr: pr, r: r}}
		if _, err := table.resolvePaths(job[:]); err != nil {
			t.Fatal(err)
		}
		return job[0].path
	}
	got := make([]*netem.Path, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = resolve(r)
		}()
	}
	wg.Wait()
	for _, path := range got {
		if path == nil || path != got[0] {
			t.Fatal("racing lookups of one pair returned different paths")
		}
	}
	if resolve(r) != got[0] {
		t.Error("path not cached")
	}
	derived, err := p.Path(pr, r)
	if err != nil {
		t.Fatal(err)
	}
	if derived == got[0] || *derived != *got[0] {
		t.Errorf("Platform.Path returned %p, the table %p: want an equal path derived afresh", derived, got[0])
	}

	var far *cloud.Region
	for _, c := range p.Catalog.All() {
		if !slices.Contains(p.Targets(pr), c) {
			far = c
			break
		}
	}
	if far == nil {
		t.Fatal("every region is a target of the first probe")
	}
	if resolve(far) == got[0] {
		t.Error("two regions share a path")
	}
	other, err := cloud.Deployment(geo.World())
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := other.Lookup(r.Addr())
	want, err := p.Path(pr, twin)
	if err != nil {
		t.Fatal(err)
	}
	if foreign := resolve(twin); foreign == got[0] || foreign == resolve(twin) || *foreign != *want {
		t.Errorf("a region of another catalog was served from the table")
	}
}

// TestPathTableDiesWithCampaign: the path table belongs to the campaign
// that fills it. Once RunCampaignOpts returns, nothing holds the table,
// so a collection frees it and every path in it, while the platform
// lives on.
func TestPathTableDiesWithCampaign(t *testing.T) {
	p := smallPlatform(t)
	tables := weakPathTables(t)
	cfg := TestCampaign()
	cfg.End = cfg.Start.Add(2 * 24 * time.Hour)
	n, err := p.RunCampaignOpts(context.Background(), cfg, CampaignOptions{Workers: 2}, func(results.Sample) error { return nil })
	if err != nil || n == 0 {
		t.Fatalf("campaign: %d samples, %v", n, err)
	}
	if len(*tables) != 1 {
		t.Fatalf("the campaign allocated %d path tables, want 1", len(*tables))
	}
	runtime.GC()
	if (*tables)[0].Value() != nil {
		t.Error("the campaign's path table outlived it")
	}
	runtime.KeepAlive(p)
}

// TestResolvePathsMatchesPath: the batched resolver is Path, batch by
// batch. Every public pair resolves to a path equal to the one Path
// derives, in batches of every size up to the campaign's that mix pairs
// already in the table with pairs derived fresh, and a later lookup of
// the pair returns the same instance; a probe ID past the table and a
// region of another catalog have no cell and are derived afresh on
// every lookup. A path error at job k of a round still emits the k
// samples before it and counts them, as resolving one pair at a time
// does.
func TestResolvePathsMatchesPath(t *testing.T) {
	p := smallPlatform(t)
	table := newPathTable(p)
	var jobs []pathJob
	for _, pr := range p.Population.Public() {
		for _, r := range p.Targets(pr) {
			jobs = append(jobs, pathJob{pr: pr, r: r})
		}
	}
	for i := 0; i < len(jobs); i += 3 { // a third of the pairs are cached before any batch
		if _, err := table.resolvePaths(jobs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	size := 1
	for lo := 0; lo < len(jobs); lo += size {
		size = size%pathBatch + 1
		batch := jobs[lo:min(lo+size, len(jobs))]
		if n, err := table.resolvePaths(batch); n != len(batch) || err != nil {
			t.Fatalf("batch at %d resolved %d of %d: %v", lo, n, len(batch), err)
		}
	}
	for _, j := range jobs {
		again := [1]pathJob{{pr: j.pr, r: j.r}}
		if _, err := table.resolvePaths(again[:]); err != nil || again[0].path != j.path {
			t.Fatalf("probe %d to %s: resolved %p, then %p (%v)", j.pr.ID, j.r.Addr(), j.path, again[0].path, err)
		}
		if want, err := p.Path(j.pr, j.r); err != nil || *j.path != *want {
			t.Fatalf("probe %d to %s: resolved a path unequal to Path's (%v)", j.pr.ID, j.r.Addr(), err)
		}
	}

	pr, r := jobs[0].pr, jobs[0].r
	past := *pr
	past.ID = p.Population.All()[p.Population.Len()-1].ID + 1 // the first ID past the table
	other, err := cloud.Deployment(geo.World())
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := other.Lookup(r.Addr())
	loose := []pathJob{{pr: &past, r: r}, jobs[1], {pr: pr, r: twin}}
	first := slices.Clone(loose)
	for range 2 {
		if n, err := table.resolvePaths(loose); n != len(loose) || err != nil {
			t.Fatalf("resolved %d of %d: %v", n, len(loose), err)
		}
	}
	if _, err := table.resolvePaths(first); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2} {
		j := loose[k]
		want, err := p.Path(j.pr, j.r)
		if err != nil || j.path == nil || j.path == first[k].path || *j.path != *want {
			t.Fatalf("a pair without a cell: resolved %p, earlier %p (%v); want an equal path derived afresh", j.path, first[k].path, err)
		}
	}
	if loose[1].path != jobs[1].path {
		t.Fatal("a cached pair beside cell-less ones resolved to another path")
	}

	cfg := TestCampaign()
	probes := p.Population.Public()
	var want []results.Sample
	if _, err := p.synthesizeRound(context.Background(), cfg, 0, probes, table, nil, func(s results.Sample) error {
		want = append(want, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bad := past
	bad.Tier = 0 // Model.Path refuses it
	for _, before := range []int{0, 5, pathBatch / cfg.TargetsPerRound, 40, len(probes)} {
		withBad := slices.Insert(slices.Clone(probes), before, &bad)
		var got []results.Sample
		n, err := p.synthesizeRound(context.Background(), cfg, 0, withBad, table, nil, func(s results.Sample) error {
			got = append(got, s)
			return nil
		})
		k := before * cfg.TargetsPerRound
		if err == nil || n != uint64(k) || !slices.Equal(got, want[:k]) {
			t.Fatalf("bad probe after %d probes: emitted %d (%d samples, prefix equal %v), err %v; want %d samples and an error",
				before, n, len(got), slices.Equal(got, want[:min(k, len(got))]), err, k)
		}
	}
}

// TestSynthesizeRoundSteadyStateAllocs is the ceiling on the campaign's
// inner loop: once a round has filled the path table, synthesizing
// another allocates nothing per sample beyond what emit does — no boxed
// key, no hashed string. A few allocations per round are tolerated;
// the round below emits ~400 samples.
func TestSynthesizeRoundSteadyStateAllocs(t *testing.T) {
	p := smallPlatform(t)
	table := newPathTable(p)
	cfg := TestCampaign()
	probes := p.Population.Public()
	var samples uint64
	emit := func(results.Sample) error { samples++; return nil }
	round := 0
	synth := func() {
		if _, err := p.synthesizeRound(context.Background(), cfg, round, probes, table, nil, emit); err != nil {
			t.Fatal(err)
		}
		round++
	}
	for round < p.Catalog.Len() {
		synth() // until every probe has rotated through its whole target list
	}
	samples = 0
	allocs := testing.AllocsPerRun(10, synth)
	if perRound := samples / 11; perRound < 300 {
		t.Fatalf("a round emits %d samples; the ceiling means nothing", perRound)
	}
	t.Logf("%.0f allocations per warmed round", allocs)
	if allocs > 4 {
		t.Errorf("a warmed round allocates %.0f times, want a handful at most", allocs)
	}
}

func TestLinkResolution(t *testing.T) {
	p := smallPlatform(t)
	pr := p.Population.Public()[0]
	r := p.Targets(pr)[0]
	at := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	// Forward and reverse legs must both resolve.
	d1, _, err := p.Link(pr.Addr(), r.Addr(), 0, at)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	d2, lost2, err := p.Link(r.Addr(), pr.Addr(), 0, at)
	if err != nil {
		t.Fatalf("reverse: %v", err)
	}
	if d1 <= 0 || d2 <= 0 {
		t.Errorf("non-positive delays %v %v", d1, d2)
	}
	if lost2 {
		t.Error("reverse leg applied loss")
	}
	// Unknown pairs are rejected.
	if _, _, err := p.Link("probe/999999", r.Addr(), 0, at); err == nil {
		t.Error("unknown probe accepted")
	}
	if _, _, err := p.Link(pr.Addr(), "Nebula/nowhere", 0, at); err == nil {
		t.Error("unknown region accepted")
	}
	if _, _, err := p.Link("x", "y", 0, at); err == nil {
		t.Error("garbage pair accepted")
	}
}

func TestCampaignConfigValidation(t *testing.T) {
	good := TestCampaign()
	if err := good.Validate(); err != nil {
		t.Fatalf("test campaign invalid: %v", err)
	}
	if err := PaperCampaign().Validate(); err != nil {
		t.Fatalf("paper campaign invalid: %v", err)
	}
	muts := []func(*CampaignConfig){
		func(c *CampaignConfig) { c.End = c.Start },
		func(c *CampaignConfig) { c.Interval = 0 },
		func(c *CampaignConfig) { c.TargetsPerRound = 0 },
		func(c *CampaignConfig) { c.Participation = 0 },
		func(c *CampaignConfig) { c.Participation = 1.5 },
		func(c *CampaignConfig) { c.PingsPerTarget = 0 },
	}
	for i, m := range muts {
		c := TestCampaign()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunCampaign(t *testing.T) {
	p := smallPlatform(t)
	cfg := TestCampaign()
	cfg.End = cfg.Start.Add(3 * 24 * time.Hour) // 3 days, 8 rounds/day

	var mem results.Memory
	n, err := p.RunCampaign(context.Background(), cfg, mem.Add)
	if err != nil {
		t.Fatal(err)
	}
	public := len(p.Population.Public())
	want := uint64(cfg.Rounds() * public * cfg.TargetsPerRound)
	if n != want {
		t.Errorf("emitted %d samples, want %d", n, want)
	}
	// Samples reference only public probes and real regions, inside the
	// window, with sane RTTs.
	lost, seen := 0, 0
	err = mem.ForEach(func(s results.Sample) error {
		seen++
		pr, ok := p.Population.Lookup(s.ProbeID)
		if !ok || pr.Privileged() {
			t.Fatalf("sample from bad probe %d", s.ProbeID)
		}
		if _, ok := p.Catalog.Lookup(s.Region); !ok {
			t.Fatalf("sample to unknown region %s", s.Region)
		}
		if s.Time.Before(cfg.Start) || !s.Time.Before(cfg.End) {
			t.Fatalf("sample at %v outside window", s.Time)
		}
		if s.Lost {
			lost++
		} else if s.RTTms <= 0 || s.RTTms > 5000 {
			t.Fatalf("implausible RTT %v", s.RTTms)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(seen) != n {
		t.Errorf("sink saw %d, runner reports %d", seen, n)
	}
	if frac := float64(lost) / float64(seen); frac > 0.1 {
		t.Errorf("loss fraction %.3f implausibly high", frac)
	}
}

func TestRunCampaignDeterministic(t *testing.T) {
	cfg := TestCampaign()
	cfg.End = cfg.Start.Add(24 * time.Hour)
	collect := func() []results.Sample {
		p := smallPlatform(t)
		var mem results.Memory
		if _, err := p.RunCampaign(context.Background(), cfg, mem.Add); err != nil {
			t.Fatal(err)
		}
		var out []results.Sample
		_ = mem.ForEach(func(s results.Sample) error { out = append(out, s); return nil })
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunCampaignHonorsContext(t *testing.T) {
	p := smallPlatform(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunCampaign(ctx, TestCampaign(), func(results.Sample) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

func TestRunCampaignSinkError(t *testing.T) {
	p := smallPlatform(t)
	sentinel := errors.New("disk full")
	n, err := p.RunCampaign(context.Background(), TestCampaign(), func(results.Sample) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("got %v", err)
	}
	if n != 0 {
		t.Errorf("emitted %d after sink failure", n)
	}
}

func TestParticipationThinning(t *testing.T) {
	p := smallPlatform(t)
	cfg := TestCampaign()
	cfg.End = cfg.Start.Add(6 * 24 * time.Hour)
	full, err := p.RunCampaign(context.Background(), cfg, func(results.Sample) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	cfg.Participation = 0.5
	half, err := p.RunCampaign(context.Background(), cfg, func(results.Sample) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(half) / float64(full)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("participation 0.5 kept %.2f of samples", ratio)
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	if err := l.Grant("", 10); err == nil {
		t.Error("empty account accepted")
	}
	if err := l.Grant("a", 0); err == nil {
		t.Error("zero grant accepted")
	}
	if err := l.Grant("a", 100); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("a", 150); !errors.Is(err, ErrInsufficientCredits) {
		t.Errorf("overdraft: %v", err)
	}
	if err := l.Charge("a", 60); err != nil {
		t.Fatal(err)
	}
	if l.Balance("a") != 40 || l.Spent("a") != 60 {
		t.Errorf("balance=%d spent=%d", l.Balance("a"), l.Spent("a"))
	}
	if err := l.Refund("a", 100); err == nil {
		t.Error("refund beyond spend accepted")
	}
	if err := l.Refund("a", 10); err != nil {
		t.Fatal(err)
	}
	if l.Balance("a") != 50 || l.Spent("a") != 50 {
		t.Errorf("after refund: balance=%d spent=%d", l.Balance("a"), l.Spent("a"))
	}
	if err := l.Charge("a", -1); err == nil {
		t.Error("negative charge accepted")
	}
	if err := l.Refund("a", -1); err == nil {
		t.Error("negative refund accepted")
	}
	if l.Balance("ghost") != 0 {
		t.Error("unknown account has balance")
	}
}

func TestLiveMeasurement(t *testing.T) {
	p := smallPlatform(t)
	ledger := NewLedger()
	if err := ledger.Grant("alice", 1000); err != nil {
		t.Fatal(err)
	}
	svc, err := NewLiveService(p, ledger, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	pr := p.Population.Public()[0]
	target := p.Targets(pr)[0]
	spec := MeasurementSpec{
		Target:   target.Addr(),
		ProbeIDs: []int{pr.ID},
		Count:    3,
		Interval: 10 * time.Millisecond,
		Timeout:  5 * time.Second,
	}
	id, err := svc.Create("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if ledger.Spent("alice") != spec.Cost() {
		t.Errorf("spent %d, want %d", ledger.Spent("alice"), spec.Cost())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	m, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != StatusDone {
		t.Fatalf("status = %s (%s)", m.Status, m.Error)
	}
	if len(m.Results) != 3 {
		t.Fatalf("got %d results", len(m.Results))
	}
	for _, s := range m.Results {
		if s.Lost {
			continue
		}
		// RTT is reported at full scale: a wide-area path is at least 1 ms
		// and under 5 s.
		if s.RTTms < 1 || s.RTTms > 5000 {
			t.Errorf("RTT %v ms out of range", s.RTTms)
		}
	}
}

func TestLiveMeasurementValidation(t *testing.T) {
	p := smallPlatform(t)
	ledger := NewLedger()
	if err := ledger.Grant("bob", 5); err != nil {
		t.Fatal(err)
	}
	svc, err := NewLiveService(p, ledger, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	pr := p.Population.Public()[0]
	target := p.Targets(pr)[0].Addr()
	base := MeasurementSpec{Target: target, ProbeIDs: []int{pr.ID}, Count: 1, Timeout: time.Second}

	cases := []struct {
		name string
		mut  func(MeasurementSpec) MeasurementSpec
	}{
		{"unknown target", func(s MeasurementSpec) MeasurementSpec { s.Target = "X/y"; return s }},
		{"no probes", func(s MeasurementSpec) MeasurementSpec { s.ProbeIDs = nil; return s }},
		{"unknown probe", func(s MeasurementSpec) MeasurementSpec { s.ProbeIDs = []int{99999}; return s }},
		{"zero count", func(s MeasurementSpec) MeasurementSpec { s.Count = 0; return s }},
		{"huge count", func(s MeasurementSpec) MeasurementSpec { s.Count = 1000; return s }},
		{"negative interval", func(s MeasurementSpec) MeasurementSpec { s.Interval = -time.Second; return s }},
		{"zero timeout", func(s MeasurementSpec) MeasurementSpec { s.Timeout = 0; return s }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := svc.Create("bob", tc.mut(base)); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}

	// Privileged probes are refused.
	var privileged int
	for _, pr := range p.Population.All() {
		if pr.Privileged() {
			privileged = pr.ID
			break
		}
	}
	if privileged != 0 {
		s := base
		s.ProbeIDs = []int{privileged}
		if _, err := svc.Create("bob", s); err == nil {
			t.Error("privileged probe accepted")
		}
	}

	// Credit exhaustion.
	s := base
	s.Count = 100
	if _, err := svc.Create("bob", s); !errors.Is(err, ErrInsufficientCredits) {
		t.Errorf("overdraft: %v", err)
	}
	if _, ok := svc.Get(12345); ok {
		t.Error("unknown measurement found")
	}
}

func TestNewLiveServiceValidation(t *testing.T) {
	p := smallPlatform(t)
	if _, err := NewLiveService(nil, NewLedger(), 1); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := NewLiveService(p, nil, 1); err == nil {
		t.Error("nil ledger accepted")
	}
	if _, err := NewLiveService(p, NewLedger(), 0); err == nil {
		t.Error("zero time scale accepted")
	}
	if _, err := NewLiveService(p, NewLedger(), 2); err == nil {
		t.Error("time scale above 1 accepted")
	}
}

func TestLinkServiceSuffixes(t *testing.T) {
	p := smallPlatform(t)
	pr := p.Population.Public()[0]
	r := p.Targets(pr)[0]
	at := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	// Suffixed service addresses share the host's network location.
	if _, _, err := p.Link(pr.Addr()+"/tcp-client", r.Addr()+"/tcp", 0, at); err != nil {
		t.Errorf("suffixed pair rejected: %v", err)
	}
	if _, _, err := p.Link(r.Addr()+"/tcp", pr.Addr(), 0, at); err != nil {
		t.Errorf("suffixed reverse rejected: %v", err)
	}
	// But garbage still fails.
	if _, _, err := p.Link("Amazon/nope/tcp", pr.Addr(), 0, at); err == nil {
		t.Error("unknown suffixed region accepted")
	}
}

func TestLinkSizedSerialization(t *testing.T) {
	p := smallPlatform(t)
	pr := p.Population.Public()[0]
	r := p.Targets(pr)[0]
	at := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	small, _, err := p.Link(pr.Addr(), r.Addr(), 64, at)
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := p.Link(pr.Addr(), r.Addr(), 1<<20, at)
	if err != nil {
		t.Fatal(err)
	}
	// A 1 MiB payload pays serialization time a 64-byte ping does not.
	if big <= small {
		t.Errorf("1MiB leg (%v) not slower than 64B leg (%v)", big, small)
	}
	// The reverse (datacenter->probe) leg is not probe-uplink constrained.
	revSmall, _, err := p.Link(r.Addr(), pr.Addr(), 64, at)
	if err != nil {
		t.Fatal(err)
	}
	revBig, _, err := p.Link(r.Addr(), pr.Addr(), 1<<20, at)
	if err != nil {
		t.Fatal(err)
	}
	if revBig != revSmall {
		t.Errorf("reverse leg varies with size: %v vs %v", revBig, revSmall)
	}
}
