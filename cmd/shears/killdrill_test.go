package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// drillSeed fixes the kill drill's schedule; a failure prints it.
const drillSeed = 1

// TestKillDrill holds the restart rule over the real binaries: after a
// SIGKILL at any point, running the same command again ends with what an
// uninterrupted run leaves — the same stdout, figure files, dataset
// files and directory listing, the run*.json manifests aside. It drills
// three commands: shears with -figdir and figures on stdout, figures -fig 4
// while it writes samples.snap, and dataset window while tix.Extend
// appends to samples.tix. Kill points come in two modes: nth kills
// shears after its Nth "checkpoint written" log line, and random kills a
// command at a seeded fraction of its reference run's wall time (one
// fraction per equal slice of it, so every schedule spans the run).
//
// A kill leaves the page cache intact, so what it cannot show is a lost
// fsync or a rename that did not reach the disk.
func TestKillDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands and kills them")
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("kill drill seed %d", drillSeed)
		}
	})
	rng := rand.New(rand.NewPCG(drillSeed, 0))
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"repro/cmd/shears", "repro/cmd/figures", "repro/cmd/dataset")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tmp := t.TempDir()
	const randomKills = 6
	fractions := func() []float64 {
		f := make([]float64, randomKills)
		for i := range f {
			f[i] = (float64(i) + rng.Float64()) / randomKills
		}
		return f
	}

	// shears: a fortnight at paper scale checkpoints six times.
	shearsArgs := func(out, fig string) []string {
		return []string{"-out", out, "-figdir", fig, "-days", "14", "-seed", "1", "-workers", "2",
			"-progress", "0", "-log-format", "json"}
	}
	refOut, refFig := filepath.Join(tmp, "ref"), filepath.Join(tmp, "reffig")
	ref := runDrillChild(t, filepath.Join(bin, "shears"), shearsArgs(refOut, refFig), 0, 0)
	if ref.err != nil {
		t.Fatalf("reference shears run: %v\n%s", ref.err, ref.logs)
	}
	var kills []drillKill
	for _, n := range []int{1, 3, 6} {
		kills = append(kills, drillKill{nth: n})
	}
	for _, f := range fractions() {
		kills = append(kills, drillKill{at: time.Duration(f * float64(ref.wall))})
	}
	for i, k := range kills {
		out, fig := filepath.Join(tmp, fmt.Sprintf("shears%d", i)), filepath.Join(tmp, fmt.Sprintf("fig%d", i))
		args := shearsArgs(out, fig)
		runDrillChild(t, filepath.Join(bin, "shears"), args, k.at, k.nth)
		_, ckErr := os.Stat(filepath.Join(out, checkpointFile))
		again := runDrillChild(t, filepath.Join(bin, "shears"), args, 0, 0)
		if again.err != nil {
			t.Errorf("shears %v: re-run failed: %v\n%s", k, again.err, again.logs)
			continue
		}
		resumed := bytes.Contains(again.logs, []byte(`"msg":"resuming campaign"`))
		fresh := bytes.Contains(again.logs, []byte(`"msg":"starting the campaign fresh"`))
		if ckErr == nil && !resumed && !fresh {
			t.Errorf("shears %v: the re-run neither resumed from the checkpoint nor said why not", k)
		}
		t.Logf("shears %v: checkpoint left %v, re-run resumed %v, said why it started fresh %v", k, ckErr == nil, resumed, fresh)
		sameOutcome(t, fmt.Sprintf("shears %v", k), ref.stdout, again.stdout, refOut, out)
		sameOutcome(t, fmt.Sprintf("shears %v figdir", k), nil, nil, refFig, fig)
	}

	// figures -fig 4 and dataset window over copies of the reference
	// store without the sidecar each of them writes.
	window := "2019-09-02T00:00:00Z,2019-09-12T12:00:00Z"
	for _, c := range []struct {
		name, drop string
		args       func(dir string) []string
		stdout     func([]byte) []byte
	}{
		{"figures", "samples.snap", func(dir string) []string {
			return []string{"-fig", "4", "-data", dir, "-log-format", "json"}
		}, func(b []byte) []byte { return b }},
		// The window op's first line times its stages.
		{"dataset", "samples.tix", func(dir string) []string {
			return []string{"-data", dir, "-window", window, "window"}
		}, func(b []byte) []byte {
			_, rest, _ := bytes.Cut(b, []byte("\n"))
			return rest
		}},
	} {
		exe := filepath.Join(bin, c.name)
		refDir := filepath.Join(tmp, c.name+"-ref")
		copyStore(t, refOut, refDir, c.drop)
		ref := runDrillChild(t, exe, c.args(refDir), 0, 0)
		if ref.err != nil {
			t.Fatalf("reference %s run: %v\n%s", c.name, ref.err, ref.logs)
		}
		for i, f := range fractions() {
			k := drillKill{at: time.Duration(f * float64(ref.wall))}
			dir := filepath.Join(tmp, fmt.Sprintf("%s%d", c.name, i))
			copyStore(t, refOut, dir, c.drop)
			killed := runDrillChild(t, exe, c.args(dir), k.at, 0)
			t.Logf("%s %v: the killed run ended with %v", c.name, k, killed.err)
			again := runDrillChild(t, exe, c.args(dir), 0, 0)
			if again.err != nil {
				t.Errorf("%s %v: re-run failed: %v\n%s", c.name, k, again.err, again.logs)
				continue
			}
			sameOutcome(t, fmt.Sprintf("%s %v", c.name, k), c.stdout(ref.stdout), c.stdout(again.stdout), refDir, dir)
			os.RemoveAll(dir)
		}
	}
}

// drillKill is one kill point: after the nth "checkpoint written" log
// line when nth > 0, else at the given time after the start.
type drillKill struct {
	nth int
	at  time.Duration
}

func (k drillKill) String() string {
	if k.nth > 0 {
		return fmt.Sprintf("killed after checkpoint %d", k.nth)
	}
	return fmt.Sprintf("killed at %v", k.at.Round(time.Microsecond))
}

// drillRun is what one child process left: its stdout, its stderr
// lines, its wall time and how it exited.
type drillRun struct {
	stdout, logs []byte
	wall         time.Duration
	err          error
}

// runDrillChild runs bin with args and SIGKILLs it at the given time
// after its start (at > 0) or after its nth "checkpoint written" log
// line (nth > 0).
func runDrillChild(t *testing.T, bin string, args []string, at time.Duration, nth int) drillRun {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if at > 0 {
		defer time.AfterFunc(at, func() { cmd.Process.Kill() }).Stop()
	}
	var logs bytes.Buffer
	sc := bufio.NewScanner(stderr)
	sc.Buffer(nil, 1<<20)
	for seen := 0; sc.Scan(); {
		logs.Write(sc.Bytes())
		logs.WriteByte('\n')
		if nth > 0 && bytes.Contains(sc.Bytes(), []byte(`"msg":"checkpoint written"`)) {
			if seen++; seen == nth {
				cmd.Process.Kill()
			}
		}
	}
	err = cmd.Wait()
	return drillRun{stdout: stdout.Bytes(), logs: logs.Bytes(), wall: time.Since(start), err: err}
}

// copyStore copies the files of dir src into a new dir dst, leaving out
// drop and the run manifests.
func copyStore(t *testing.T, src, dst, drop string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range drillFiles(t, src) {
		if name == drop {
			continue
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// drillFiles reads every file of dir but the run*.json manifests, which
// record timings.
func drillFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run") && strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// sameOutcome compares a re-run's stdout and directory with the
// uninterrupted run's: the same names, each with the same bytes.
func sameOutcome(t *testing.T, what string, wantOut, gotOut []byte, wantDir, gotDir string) {
	t.Helper()
	if !bytes.Equal(gotOut, wantOut) {
		t.Errorf("%s: stdout differs from the uninterrupted run's", what)
	}
	want, got := drillFiles(t, wantDir), drillFiles(t, gotDir)
	names := func(m map[string][]byte) []string {
		var s []string
		for n := range m {
			s = append(s, n)
		}
		slices.Sort(s)
		return s
	}
	if w, g := names(want), names(got); !slices.Equal(w, g) {
		t.Errorf("%s: directory lists %v, want %v", what, g, w)
	}
	for name, b := range want {
		if g, ok := got[name]; ok && !bytes.Equal(g, b) {
			t.Errorf("%s: %s differs from the uninterrupted run's", what, name)
		}
	}
}
