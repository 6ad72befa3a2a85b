package delay

import (
	"math"
	"testing"

	"repro/internal/netem"
	"repro/internal/world"
)

func report(t *testing.T) *Report {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 5, Probes: 400})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := WhereIsTheDelay(w.Platform)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestWhereIsTheDelayShape(t *testing.T) {
	rep := report(t)
	if len(rep.ByContinent) != 6 {
		t.Fatalf("attributed %d continents", len(rep.ByContinent))
	}
	// §4.3 narrative: Africa's delay is dominated by transit (insufficient
	// infrastructure), not by physics.
	africa := group(t, rep, "Africa")
	if africa.Dominant() != "transit" && africa.Dominant() != "propagation" {
		t.Errorf("Africa dominated by %s", africa.Dominant())
	}
	if africa.TransitMs < 20 {
		t.Errorf("Africa transit share %.1f ms implausibly small", africa.TransitMs)
	}
	// Europe's remaining delay is mostly the last mile or short transit —
	// propagation to a nearby DC is small.
	europe := group(t, rep, "Europe")
	if europe.MeanRTTms >= africa.MeanRTTms {
		t.Errorf("Europe mean %.1f >= Africa mean %.1f", europe.MeanRTTms, africa.MeanRTTms)
	}
	if europe.PropagationMs > 15 {
		t.Errorf("Europe propagation %.1f ms too high for nearest-DC paths", europe.PropagationMs)
	}
}

func TestAccessAttribution(t *testing.T) {
	rep := report(t)
	wired := group(t, rep, "wired")
	wireless := group(t, rep, "wireless")
	// The wireless group's last mile dominates its wired counterpart —
	// the §4.3 conclusion.
	if wireless.LastMileMs < wired.LastMileMs*2 {
		t.Errorf("wireless last mile %.1f not clearly above wired %.1f",
			wireless.LastMileMs, wired.LastMileMs)
	}
	// Bufferbloat shows up on wireless paths.
	if wireless.BloatMs <= wired.BloatMs {
		t.Errorf("wireless bloat %.2f <= wired bloat %.2f", wireless.BloatMs, wired.BloatMs)
	}
}

func TestAttributionConsistency(t *testing.T) {
	rep := report(t)
	all := append(append([]Attribution(nil), rep.ByContinent...), rep.ByAccess...)
	for _, a := range all {
		gap := a.consistencyGapMs()
		// The gap is exactly the processing floor.
		if math.Abs(gap-netem.DefaultConfig().ProcessingMs) > 1e-6 {
			t.Errorf("%s: components + %.3f != mean RTT (gap %.3f)", a.Group, netem.DefaultConfig().ProcessingMs, gap)
		}
		if a.Samples <= 0 {
			t.Errorf("%s has no samples", a.Group)
		}
		share := (a.TransitMs + a.PropagationMs + a.LastMileMs + a.BloatMs) / a.MeanRTTms
		if share < 0.9 || share > 1.01 {
			t.Errorf("%s shares sum to %.3f", a.Group, share)
		}
	}
}

// TestConfigValidation: the sampling is fixed, so the one input left to
// refuse is a missing platform.
func TestConfigValidation(t *testing.T) {
	if _, err := WhereIsTheDelay(nil); err == nil {
		t.Error("nil platform accepted")
	}
}

func TestFormatAndLookup(t *testing.T) {
	rep := report(t)
	lines := rep.Format()
	if len(lines) != 1+len(rep.ByContinent)+len(rep.ByAccess) {
		t.Errorf("Format produced %d lines", len(lines))
	}
}

// group finds one continent's or access type's attribution.
func group(t *testing.T, rep *Report, name string) Attribution {
	t.Helper()
	for _, a := range append(append([]Attribution(nil), rep.ByContinent...), rep.ByAccess...) {
		if a.Group == name {
			return a
		}
	}
	t.Fatalf("%s missing", name)
	return Attribution{}
}

// consistencyGapMs is what the mean components leave of the mean RTT:
// they must reconstruct it up to the fixed processing floor.
func (a Attribution) consistencyGapMs() float64 {
	return a.MeanRTTms - (a.PropagationMs + a.TransitMs + a.LastMileMs + a.BloatMs)
}
