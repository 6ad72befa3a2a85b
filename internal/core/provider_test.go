package core

import (
	"testing"

	"repro/internal/results"
)

func TestProviderComparison(t *testing.T) {
	f := dataset(t)
	rep := scanned(t, f, passBinWidth, PassProvider).Provider
	if len(rep.Rows) != 7 {
		t.Fatalf("compared %d providers, want 7", len(rep.Rows))
	}
	// Rows are sorted by median.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i-1].Summary.Median > rep.Rows[i].Summary.Median {
			t.Fatal("rows not sorted by median")
		}
	}
	for _, row := range rep.Rows {
		if row.Summary.N == 0 {
			t.Errorf("%s has no samples", row.Provider)
		}
		if row.LossRate < 0 || row.LossRate > 0.2 {
			t.Errorf("%s loss rate %.3f implausible", row.Provider, row.LossRate)
		}
	}
	// §4.1 shape: on comparable geography (both with broad EU/NA/Asia
	// coverage), the private backbones of Amazon and Google beat the
	// public-transit Vultr and Linode. Compare the best private median
	// against the worst public median rather than every pair, since
	// footprint geometry also moves the medians.
	amazon := providerRow(t, rep, "Amazon")
	google := providerRow(t, rep, "Google")
	vultr := providerRow(t, rep, "Vultr")
	linode := providerRow(t, rep, "Linode")
	bestPrivate := amazon.Summary.Median
	if google.Summary.Median < bestPrivate {
		bestPrivate = google.Summary.Median
	}
	worstPublic := vultr.Summary.Median
	if linode.Summary.Median > worstPublic {
		worstPublic = linode.Summary.Median
	}
	if bestPrivate >= worstPublic {
		t.Errorf("best private median %.1f >= worst public median %.1f",
			bestPrivate, worstPublic)
	}
}

func TestProviderComparisonValidation(t *testing.T) {
	f := dataset(t)
	if _, err := ScanMemory(nil, f.idx, f.cfg.Start, passBinWidth, PassProvider); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := ScanMemory(f.mem, nil, f.cfg.Start, passBinWidth, PassProvider); err == nil {
		t.Error("nil index accepted")
	}
	var empty results.Memory
	if _, err := ScanMemory(&empty, f.idx, f.cfg.Start, passBinWidth, PassProvider); err == nil {
		t.Error("empty dataset accepted")
	}
}

// providerRow finds one provider's row.
func providerRow(t *testing.T, rep *ProviderReport, provider string) ProviderRow {
	t.Helper()
	for _, row := range rep.Rows {
		if row.Provider == provider {
			return row
		}
	}
	t.Fatalf("%s missing", provider)
	return ProviderRow{}
}
