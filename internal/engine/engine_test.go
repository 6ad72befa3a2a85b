package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/results"
)

// testGen emits perShard samples per (shard, round) cell with identities
// encoding the cell, so merge order is fully observable.
func testGen(shards, perShard int) GenFunc {
	return func(ctx context.Context, shard, round int, emit func(results.Sample) error) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < perShard; i++ {
			s := results.Sample{
				ProbeID: shard*1_000_000 + round*1_000 + i + 1,
				Region:  fmt.Sprintf("prov/r%d", shard),
				Time:    time.Unix(int64(round), 0).UTC(),
				RTTms:   float64(round + 1),
			}
			if err := emit(s); err != nil {
				return err
			}
		}
		return nil
	}
}

// serialOrder is the canonical expectation: round-major, shard-ascending.
func serialOrder(shards, rounds, perShard int) []results.Sample {
	var out []results.Sample
	gen := testGen(shards, perShard)
	for round := 0; round < rounds; round++ {
		for s := 0; s < shards; s++ {
			gen(context.Background(), s, round, func(smp results.Sample) error {
				out = append(out, smp)
				return nil
			})
		}
	}
	return out
}

func TestRunMergesInCanonicalOrder(t *testing.T) {
	const rounds, perShard = 9, 7
	for _, workers := range []int{1, 2, 3, 5, 8} {
		var got []results.Sample
		n, err := Run(context.Background(), Config{
			Workers: workers,
			Rounds:  rounds,
			Gen:     testGen(workers, perShard),
			Sink: func(s results.Sample) error {
				got = append(got, s)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := serialOrder(workers, rounds, perShard)
		if n != uint64(len(want)) {
			t.Fatalf("workers=%d: emitted %d, want %d", workers, n, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: merged order diverges from canonical order", workers)
		}
	}
}

func TestRunGenErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	gen := func(ctx context.Context, shard, round int, emit func(results.Sample) error) error {
		if shard == 1 && round == 2 {
			return boom
		}
		return testGen(3, 2)(ctx, shard, round, emit)
	}
	_, err := Run(context.Background(), Config{
		Workers: 3,
		Rounds:  5,
		Gen:     gen,
		Sink:    func(results.Sample) error { return nil },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestRunSinkErrorStops(t *testing.T) {
	sentinel := errors.New("disk full")
	var wrote int
	n, err := Run(context.Background(), Config{
		Workers: 2,
		Rounds:  4,
		Gen:     testGen(2, 3),
		Sink: func(results.Sample) error {
			if wrote == 7 {
				return sentinel
			}
			wrote++
			return nil
		},
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if n != 7 {
		t.Fatalf("emitted = %d, want 7", n)
	}
}

func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n int
	_, err := Run(ctx, Config{
		Workers: 2,
		Rounds:  1_000,
		Gen:     testGen(2, 4),
		Sink: func(results.Sample) error {
			n++
			if n == 10 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCancelDuringSinkStopsPromptly cancels from inside the sink,
// mid-batch: the merger must stop within ctxCheckEvery samples rather
// than drain the batch (and the batches queued behind it) first.
func TestRunCancelDuringSinkStopsPromptly(t *testing.T) {
	const perShard, cancelAt = 2_000, 100
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var n int
		emitted, err := Run(ctx, Config{
			Workers: workers,
			Rounds:  50,
			Gen:     testGen(workers, perShard),
			Sink: func(results.Sample) error {
				if n++; n == cancelAt {
					cancel()
				}
				return nil
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if emitted > cancelAt+ctxCheckEvery {
			t.Errorf("workers=%d: %d samples sunk after a cancel at %d", workers, emitted, cancelAt)
		}
	}
}

func TestRunChecksAndResumesFromCheckpoint(t *testing.T) {
	const workers, rounds, perShard = 3, 12, 5
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "checkpoint.json")
	reg := obs.NewRegistry()
	m := NewMetrics(reg)

	// The "sink" is an in-memory log whose durable offset is its length at
	// the last commit; the tail past that offset simulates unflushed or
	// partial post-checkpoint output that resume must discard.
	var log []results.Sample
	commit := func() (int64, error) { return int64(len(log)), nil }

	// First run: fail permanently partway through round 9, after the
	// round-7 checkpoint (CheckpointEvery=4 -> checkpoints at rounds 3, 7).
	sentinel := errors.New("power cut")
	var emitted int
	_, err := Run(context.Background(), Config{
		Workers:         workers,
		Rounds:          rounds,
		CheckpointEvery: 4,
		CheckpointPath:  ckPath,
		Commit:          commit,
		Fingerprint:     "fp-1",
		Metrics:         m,
		Gen:             testGen(workers, perShard),
		Sink: func(s results.Sample) error {
			if emitted == 9*workers*perShard+4 { // mid round 9
				return sentinel
			}
			log = append(log, s)
			emitted++
			return nil
		},
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("interrupted run err = %v, want %v", err, sentinel)
	}
	if v := m.CheckpointWrites.Value(); v != 2 {
		t.Fatalf("checkpoint writes = %d, want 2", v)
	}

	cp, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Round != 7 || cp.Fingerprint != "fp-1" || cp.Every != 4 {
		t.Fatalf("checkpoint = %+v, want round 7 fp-1 every 4", cp)
	}
	if cp.Samples != uint64((cp.Round+1)*workers*perShard) {
		t.Fatalf("checkpoint samples = %d, want %d", cp.Samples, (cp.Round+1)*workers*perShard)
	}
	if cp.SinkOffset != int64(cp.Samples) {
		t.Fatalf("checkpoint offset = %d, want %d", cp.SinkOffset, cp.Samples)
	}

	// Resume: truncate the log to the durable offset and continue from the
	// watermark, with a different worker count to prove shard-count
	// independence of the merged stream.
	log = log[:cp.SinkOffset]
	n, err := Run(context.Background(), Config{
		Workers:      5,
		Rounds:       rounds,
		StartRound:   cp.Round + 1,
		StartSamples: cp.Samples,
		Gen:          testGen(5, perShard),
		Sink: func(s results.Sample) error {
			log = append(log, s)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the prefix expectation with the original shard count and the
	// suffix with the resumed one: both describe the same logical stream
	// when per-cell content depends only on (shard, round).
	want := serialOrder(workers, cp.Round+1, perShard)
	want = append(want, serialOrder(5, rounds, perShard)[len(serialOrder(5, cp.Round+1, perShard)):]...)
	if n != uint64(len(want)) {
		t.Fatalf("resumed total = %d, want %d", n, len(want))
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatal("resumed stream diverges from uninterrupted stream")
	}
}

func TestCheckpointSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	cp := Checkpoint{
		Version: 1, Fingerprint: "abc", Round: 17,
		Samples: 1234, SinkOffset: 99_000,
	}
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	// The fixture is the same checkpoint as written when the format still
	// carried "workers" and "shards" keys: it resumes unchanged.
	for _, p := range []string{path, filepath.Join("testdata", "checkpoint-with-shards.json")} {
		got, err := LoadCheckpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, cp) {
			t.Fatalf("%s: roundtrip = %+v, want %+v", p, got, cp)
		}
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file err = %v, want fs.ErrNotExist", err)
	}

	// Every file but the one Save wrote is an error that names the path:
	// the plain JSON checkpoints once were, an empty file (a power cut
	// before the data reached the disk), and the written file torn.
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("dir holds %d entries after Save, want only the checkpoint", len(entries))
	}
	for name, data := range map[string][]byte{
		"plain json": plain,
		"empty":      nil,
		"torn":       written[:len(written)-1],
		"garbage":    []byte("{not json"),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil || errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s checkpoint: err = %v, want a corrupt-checkpoint error naming %s", name, err, path)
		}
	}

	bad := cp
	bad.Version = 9
	if err := bad.Save(path); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Rounds: 1}); err == nil {
		t.Fatal("nil Gen/Sink accepted")
	}
	_, err := Run(context.Background(), Config{
		Rounds: 2, StartRound: 5,
		Gen:  testGen(1, 1),
		Sink: func(results.Sample) error { return nil },
	})
	if err == nil {
		t.Fatal("StartRound past Rounds accepted")
	}
}

// TestOnCheckpointHook pins the checkpoint callback contract: it fires
// once per durable checkpoint, after the checkpoint file exists, with
// the checkpointed round and the committed sink offset.
func TestOnCheckpointHook(t *testing.T) {
	const workers, rounds, perShard = 3, 12, 5
	ckPath := filepath.Join(t.TempDir(), "ck.json")
	var log []results.Sample
	type ck struct {
		round  int
		offset int64
	}
	var hooks []ck
	_, err := Run(context.Background(), Config{
		Workers:         workers,
		Rounds:          rounds,
		CheckpointEvery: 4,
		CheckpointPath:  ckPath,
		Commit:          func() (int64, error) { return int64(len(log)), nil },
		Gen:             testGen(workers, perShard),
		Sink: func(s results.Sample) error {
			log = append(log, s)
			return nil
		},
		OnCheckpoint: func(round int, offset int64) {
			// The checkpoint must already be durable when the hook runs.
			cp, err := LoadCheckpoint(ckPath)
			if err != nil {
				t.Errorf("checkpoint unreadable inside hook: %v", err)
			} else if cp.Round != round || cp.SinkOffset != offset {
				t.Errorf("hook (round=%d offset=%d) disagrees with file (round=%d offset=%d)",
					round, offset, cp.Round, cp.SinkOffset)
			}
			hooks = append(hooks, ck{round, offset})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// CheckpointEvery=4 over 12 rounds checkpoints after rounds 3 and 7;
	// the final round never checkpoints.
	want := []ck{
		{3, int64(4 * workers * perShard)},
		{7, int64(8 * workers * perShard)},
	}
	if !reflect.DeepEqual(hooks, want) {
		t.Fatalf("hooks = %+v, want %+v", hooks, want)
	}
}

// recycleGen emits a cell of 1..maxCell samples whose count varies with
// the cell, so a recycled buffer is refilled to a different length than
// it last held. It allocates nothing: the regions are spelled up front.
func recycleGen(regions []string, maxCell int) GenFunc {
	return func(ctx context.Context, shard, round int, emit func(results.Sample) error) error {
		n := 1 + (shard*7+round*3)%maxCell
		for i := 0; i < n; i++ {
			s := results.Sample{
				ProbeID: shard*1_000_000 + round*1_000 + i + 1,
				Region:  regions[shard],
				Time:    time.Unix(int64(round), 0).UTC(),
				RTTms:   float64(round*maxCell + i),
			}
			if err := emit(s); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestRunRecyclesBatches: the merger hands each drained batch buffer
// back to its shard, so a run's allocations do not grow with its round
// count — at most queueDepth+2 buffers per shard, however long the run —
// and the merged stream stays canonical while buffers are reused.
func TestRunRecyclesBatches(t *testing.T) {
	const maxCell = 9
	regions := make([]string, 8)
	for i := range regions {
		regions[i] = fmt.Sprintf("prov/r%d", i)
	}
	gen := recycleGen(regions, maxCell)
	for _, workers := range []int{1, 2, 3, 7} {
		const rounds = 40
		var got []results.Sample
		// A hint under the largest cell makes some buffers grow, so reuse
		// sees capacities other than the hint.
		_, err := Run(context.Background(), Config{
			Workers:   workers,
			Rounds:    rounds,
			BatchHint: maxCell / 2,
			Gen:       gen,
			Sink: func(s results.Sample) error {
				got = append(got, s)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var want []results.Sample
		for round := 0; round < rounds; round++ {
			for s := 0; s < workers; s++ {
				gen(context.Background(), s, round, func(smp results.Sample) error {
					want = append(want, smp)
					return nil
				})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: merged stream diverges from canonical order", workers)
		}
	}

	const workers, r = 2, 32
	var sunk uint64
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(context.Background(), Config{
				Workers:   workers,
				Rounds:    rounds,
				BatchHint: maxCell,
				Gen:       gen,
				Sink:      func(results.Sample) error { sunk++; return nil },
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(r), allocs(4*r)
	t.Logf("allocations per run: %.0f at %d rounds, %.0f at %d", short, r, long, 4*r)
	if sunk == 0 {
		t.Fatal("no samples reached the sink")
	}
	// Which of its queueDepth+2 buffers a shard gets to allocate depends on
	// scheduling; allocating one per round would add 3r per shard.
	if slack := float64(workers * (queueDepth + 2)); long > short+slack {
		t.Errorf("a run allocates %.0f times at %d rounds and %.0f at %d: batches are not recycled",
			short, r, long, 4*r)
	}
}
