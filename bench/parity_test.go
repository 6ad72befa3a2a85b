package main

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestPaperRunParity pins the traced in-process composition of
// paper_run to the real wiring: for the same seed and flags it must
// leave the same samples.bin and the same figure CSVs as the shears
// child, byte for byte. If cmd/shears changes what a run does, this
// fails until composePaperRun follows.
func TestPaperRunParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs shears")
	}
	e := builtTestEnv(t)
	ctx := context.Background()
	const days = 5 // 40 rounds: two checkpoints and a partial tail
	dir := t.TempDir()

	childOut, childFig := filepath.Join(dir, "child"), filepath.Join(dir, "childfig")
	if _, err := e.runChild(ctx, "shears", shearsArgs(days, childOut, childFig)...); err != nil {
		t.Fatal(err)
	}
	want, err := digestRun(childOut, childFig)
	if err != nil {
		t.Fatal(err)
	}

	op := obs.NewTrace(opPrefix + "paper_run")
	ownOut, ownFig := filepath.Join(dir, "own"), filepath.Join(dir, "ownfig")
	pr, err := composePaperRun(ctx, op, days, ownOut, ownFig)
	if err != nil {
		t.Fatal(err)
	}
	op.End()
	got, err := digestRun(ownOut, ownFig)
	if err != nil {
		t.Fatal(err)
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: composition wrote %.12s, shears wrote %.12s", name, got[name], sum)
		}
	}
	if len(pr.updates) != 2 {
		t.Errorf("%d checkpoint snapshot folds, want 2", len(pr.updates))
	}
	for _, side := range []string{"samples.snap", "samples.tix"} {
		a, err1 := fileSHA256(filepath.Join(childOut, side))
		b, err2 := fileSHA256(filepath.Join(ownOut, side))
		if err1 != nil || err2 != nil || a != b {
			t.Errorf("%s differs between shears and the composition (%v, %v)", side, err1, err2)
		}
	}
	if ratio, ops := selfRatio(op.Dump(), "paper_run"); ops != 1 || ratio >= 0.1 {
		t.Errorf("paper_run shape: %d ops, unattributed ratio %.3f", ops, ratio)
	}
}
