package world

import "testing"

func TestBuildDefaultShapes(t *testing.T) {
	w, err := Build(Config{Seed: 1, Probes: 800})
	if err != nil {
		t.Fatal(err)
	}
	if w.Catalog.Len() != 101 {
		t.Errorf("regions = %d", w.Catalog.Len())
	}
	if w.Probes.Len() != 800 {
		t.Errorf("probes = %d", w.Probes.Len())
	}
	if len(w.Probes.Countries()) < 166 {
		t.Errorf("countries = %d", len(w.Probes.Countries()))
	}
	if w.Index == nil || w.Platform == nil || w.Countries == nil {
		t.Error("incomplete world")
	}
	// Index and population agree on the public set.
	for _, p := range w.Probes.Public() {
		if !w.Index.Known(p.ID) {
			t.Fatalf("public probe %d missing from index", p.ID)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{Seed: 1, Probes: 0}); err == nil {
		t.Error("zero probes accepted")
	}
	if _, err := Build(Config{Seed: 1, Probes: 10}); err == nil {
		t.Error("probe count below country coverage accepted")
	}
}
