package route

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netem"
)

var t0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

func testPath(t *testing.T, access netem.Access, tier geo.Tier) (*netem.Path, netem.Site) {
	t.Helper()
	m, err := netem.NewModel(netem.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	src := netem.Site{
		ID:        "probe/1",
		Location:  geo.Point{Lat: 60.17, Lon: 24.94},
		Continent: geo.Europe,
		Tier:      tier,
		Access:    access,
	}
	p, err := m.Path(src, netem.Target{
		ID:        "Amazon/eu-central-1",
		Location:  geo.Point{Lat: 50.11, Lon: 8.68},
		Continent: geo.Europe,
		Private:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, src
}

func TestExpandConsistentWithRTT(t *testing.T) {
	p, src := testPath(t, netem.AccessWired, geo.Tier1)
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(i) * 3 * time.Hour)
		tr, err := Expand(p, src, "Amazon/eu-central-1", at)
		if err != nil {
			t.Fatal(err)
		}
		rtt, lost := p.RTT(at)
		if tr.Lost != lost {
			t.Fatalf("trace lost=%v, RTT lost=%v", tr.Lost, lost)
		}
		if lost {
			continue
		}
		got := tr.Hops[len(tr.Hops)-1].CumulativeMs
		// The last hop's cumulative total reconstructs the end-to-end RTT exactly.
		if math.Abs(got-rtt) > 1e-9 {
			t.Fatalf("trace total %.4f != RTT %.4f", got, rtt)
		}
		// Cumulative delays are monotone non-decreasing.
		prev := 0.0
		for _, h := range tr.Hops {
			if h.CumulativeMs < prev-1e-12 {
				t.Fatalf("hop %d decreases: %.4f < %.4f", h.TTL, h.CumulativeMs, prev)
			}
			prev = h.CumulativeMs
		}
		// TTLs are sequential from 1.
		for i, h := range tr.Hops {
			if h.TTL != i+1 {
				t.Fatalf("hop %d has TTL %d", i, h.TTL)
			}
		}
		// The path terminates at the target.
		if last := tr.Hops[len(tr.Hops)-1]; last.Kind != HopTarget || last.Name != "Amazon/eu-central-1" {
			t.Fatalf("last hop = %+v", last)
		}
	}
}

func TestSegmentDecomposition(t *testing.T) {
	p, src := testPath(t, netem.AccessWireless, geo.Tier3)
	tr, err := Expand(p, src, "dst", t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Lost {
		t.Skip("sample lost")
	}
	b := p.Sample(t0.Add(time.Hour))
	if math.Abs(tr.SegmentMs(HopAccess)-(b.LastMileMs+b.BloatMs)) > 1e-9 {
		t.Errorf("access segment %.3f != last mile %.3f", tr.SegmentMs(HopAccess), b.LastMileMs+b.BloatMs)
	}
	if math.Abs(tr.SegmentMs(HopTransit)-b.TransitMs) > 1e-9 {
		t.Errorf("transit segment %.3f != transit %.3f", tr.SegmentMs(HopTransit), b.TransitMs)
	}
	if math.Abs(tr.SegmentMs(HopBackbone)-b.PropagationMs) > 1e-9 {
		t.Errorf("backbone segment %.3f != propagation %.3f", tr.SegmentMs(HopBackbone), b.PropagationMs)
	}
}

func TestTierAddsTransitHops(t *testing.T) {
	count := func(tier geo.Tier) int {
		p, src := testPath(t, netem.AccessWired, tier)
		tr, err := Expand(p, src, "dst", t0)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, h := range tr.Hops {
			if h.Kind == HopTransit {
				n++
			}
		}
		return n
	}
	if count(geo.Tier1) >= count(geo.Tier4) {
		t.Errorf("tier-1 transit hops %d >= tier-4 %d", count(geo.Tier1), count(geo.Tier4))
	}
}

func TestCoreSiteSkipsResidentialAccess(t *testing.T) {
	p, src := testPath(t, netem.AccessCore, geo.Tier1)
	tr, err := Expand(p, src, "dst", t0)
	if err != nil {
		t.Fatal(err)
	}
	access := 0
	for _, h := range tr.Hops {
		if h.Kind == HopAccess {
			access++
		}
	}
	if access != 1 {
		t.Errorf("core site has %d access hops, want 1", access)
	}
}

func TestExpandValidation(t *testing.T) {
	p, src := testPath(t, netem.AccessWired, geo.Tier1)
	if _, err := Expand(nil, src, "dst", t0); err == nil {
		t.Error("nil path accepted")
	}
	if _, err := Expand(p, src, "", t0); err == nil {
		t.Error("empty destination accepted")
	}
}

func TestTraceFormat(t *testing.T) {
	p, src := testPath(t, netem.AccessWired, geo.Tier1)
	tr, err := Expand(p, src, "dst", t0)
	if err != nil {
		t.Fatal(err)
	}
	lines := tr.Format()
	if len(lines) != len(tr.Hops)+1 {
		t.Errorf("Format lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "traceroute to dst") {
		t.Errorf("header = %q", lines[0])
	}
	lost := &Trace{Dst: "dst", Lost: true}
	if lines := lost.Format(); len(lines) != 1 || !strings.Contains(lines[0], "lost") {
		t.Errorf("lost format = %v", lines)
	}
}
