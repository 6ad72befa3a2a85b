package stats

import (
	"math"
	"testing"
)

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("0 bins accepted")
	}
	if _, err := NewHistogram(10, 10, 5); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(math.NaN(), 10, 5); err == nil {
		t.Error("NaN min accepted")
	}
}

func TestHistogramCounts(t *testing.T) {
	h, err := NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-5, 0, 5, 9.999, 10, 55, 99.9, 100, 250} {
		if err := h.AddBulk([]float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddBulk([]float64{math.Inf(1)}); err == nil {
		t.Error("AddBulk(Inf) accepted")
	}
	if h.Total() != 9 {
		t.Errorf("Total = %d, want 9", h.Total())
	}
	if h.Overflow() != 2 {
		t.Errorf("Overflow = %d, want 2 (100 and 250)", h.Overflow())
	}
	bins := h.Bins()
	if len(bins) != 10 {
		t.Fatalf("len(bins) = %d", len(bins))
	}
	if bins[0].Count != 3 { // 0, 5, 9.999
		t.Errorf("bin[0] = %d, want 3", bins[0].Count)
	}
	if bins[1].Count != 1 { // 10
		t.Errorf("bin[1] = %d, want 1", bins[1].Count)
	}
	if bins[5].Count != 1 { // 55
		t.Errorf("bin[5] = %d, want 1", bins[5].Count)
	}
	if bins[9].Count != 1 { // 99.9
		t.Errorf("bin[9] = %d, want 1", bins[9].Count)
	}
}
