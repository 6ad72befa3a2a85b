package whatif

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"repro/internal/atlas"
)

func smallConfig() Config {
	c := atlas.TestCampaign()
	c.End = c.Start.Add(14 * 24 * time.Hour)
	return Config{Seed: 1, Probes: 300, Campaign: c}
}

func TestFiveGShiftsTheZone(t *testing.T) {
	rep, err := Run(context.Background(), smallConfig(), Baseline(), FiveG())
	if err != nil {
		t.Fatal(err)
	}
	base := outcome(t, rep, "baseline")
	fiveG := outcome(t, rep, "5g-promised")
	// The promised 5G collapses the wired/wireless gap...
	if fiveG.WirelessRatio >= base.WirelessRatio {
		t.Errorf("5G ratio %.2f >= baseline %.2f", fiveG.WirelessRatio, base.WirelessRatio)
	}
	if fiveG.WirelessAddedMs >= base.WirelessAddedMs {
		t.Errorf("5G added %.1f >= baseline %.1f", fiveG.WirelessAddedMs, base.WirelessAddedMs)
	}
	// ...and lowers the feasibility-zone floor, letting more (or at least
	// as many) applications in.
	if len(fiveG.InZone) < len(base.InZone) {
		t.Errorf("5G zone (%v) smaller than baseline (%v)", fiveG.InZone, base.InZone)
	}
	// The paper's key strict-latency exclusions (AR/VR at the 7 ms MTP
	// compute budget) come within reach once the floor drops under 7 ms.
	if fiveG.WirelessAddedMs < 6 {
		found := false
		for _, name := range fiveG.InZone {
			if name == "AR/VR" {
				found = true
			}
		}
		if !found {
			t.Errorf("floor %.1f ms but AR/VR still outside: %v", fiveG.WirelessAddedMs, fiveG.InZone)
		}
	}
}

func TestEarly5GIsIncremental(t *testing.T) {
	rep, err := Run(context.Background(), smallConfig(), Baseline(), FiveGEarly(), FiveG())
	if err != nil {
		t.Fatal(err)
	}
	base := outcome(t, rep, "baseline")
	early := outcome(t, rep, "5g-early")
	promised := outcome(t, rep, "5g-promised")
	// Early 5G sits between today and the promise (§5's skepticism).
	if !(promised.WirelessAddedMs <= early.WirelessAddedMs && early.WirelessAddedMs <= base.WirelessAddedMs) {
		t.Errorf("ordering broken: promised=%.1f early=%.1f base=%.1f",
			promised.WirelessAddedMs, early.WirelessAddedMs, base.WirelessAddedMs)
	}
}

func TestNoBufferbloatHelpsTail(t *testing.T) {
	rep, err := Run(context.Background(), smallConfig(), Baseline(), NoBufferbloat())
	if err != nil {
		t.Fatal(err)
	}
	base := outcome(t, rep, "baseline")
	noBloat := outcome(t, rep, "no-bufferbloat")
	// Removing bufferbloat cannot hurt the wireless medians.
	if noBloat.WirelessAddedMs > base.WirelessAddedMs*1.1 {
		t.Errorf("no-bloat added %.1f > baseline %.1f", noBloat.WirelessAddedMs, base.WirelessAddedMs)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), smallConfig()); err == nil {
		t.Error("no scenarios accepted")
	}
	bad := smallConfig()
	bad.Probes = 0
	if _, err := Run(context.Background(), bad, Baseline()); err == nil {
		t.Error("zero probes accepted")
	}
	badModel := Baseline()
	badModel.Model.FiberKmPerMs = -1
	if _, err := Run(context.Background(), smallConfig(), badModel); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestFormat(t *testing.T) {
	rep, err := Run(context.Background(), smallConfig(), Baseline())
	if err != nil {
		t.Fatal(err)
	}
	lines := rep.Format()
	if len(lines) != 2 {
		t.Errorf("Format produced %d lines", len(lines))
	}
}

// TestFormatGoldenDigest pins the comparison table byte for byte: the
// digest was recorded before the scenarios moved from two row folds each
// onto core.ScanMemory's one block fold, and must never move with the
// analysis plumbing.
func TestFormatGoldenDigest(t *testing.T) {
	rep, err := Run(context.Background(), smallConfig(), Baseline(), FiveGEarly(), FiveG(), NoBufferbloat())
	if err != nil {
		t.Fatal(err)
	}
	const want = "af957ed696df240372a27b8fa903fd308006594eeba08fe958a0d4302eadf2fc"
	sum := sha256.Sum256([]byte(strings.Join(rep.Format(), "\n") + "\n"))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("Format() digest = %s, want %s:\n%s", got, want, strings.Join(rep.Format(), "\n"))
	}
}

// outcome finds one scenario's outcome.
func outcome(t *testing.T, rep *Report, scenario string) Outcome {
	t.Helper()
	for _, o := range rep.Outcomes {
		if o.Scenario == scenario {
			return o
		}
	}
	t.Fatalf("%s missing", scenario)
	return Outcome{}
}
