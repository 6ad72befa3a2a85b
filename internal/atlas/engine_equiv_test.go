package atlas

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/results"
)

// equivCampaign is TestCampaign shortened to keep the matrix fast while
// still spanning many rounds.
func equivCampaign() CampaignConfig {
	cfg := TestCampaign()
	cfg.End = cfg.Start.Add(10 * 24 * time.Hour) // 80 rounds
	return cfg
}

// campaignBytes renders a campaign run to its JSONL byte stream.
func campaignBytes(t *testing.T, p *Platform, cfg CampaignConfig, opts CampaignOptions) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	w := results.NewWriter(&buf)
	n, err := p.RunCampaignOpts(context.Background(), cfg, opts, w.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), n
}

// TestEngineByteIdenticalToSerial is the core determinism guarantee: the
// engine's merged dataset is byte-identical to the serial path for every
// worker count, including counts that do not divide the probe population.
func TestEngineByteIdenticalToSerial(t *testing.T) {
	p := smallPlatform(t)
	cfg := equivCampaign()

	var serial bytes.Buffer
	sw := results.NewWriter(&serial)
	want, err := p.RunCampaign(context.Background(), cfg, sw.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("serial campaign emitted nothing")
	}

	for _, workers := range []int{1, 2, 4, 7} {
		got, n := campaignBytes(t, p, cfg, CampaignOptions{Workers: workers})
		if n != want {
			t.Errorf("workers=%d emitted %d samples, serial emitted %d", workers, n, want)
		}
		if !bytes.Equal(got, serial.Bytes()) {
			t.Errorf("workers=%d dataset diverges from serial output", workers)
		}
	}
}

// TestEngineKillAndResume interrupts a checkpointing run mid-flight,
// shuts the sink down cleanly (Close seals the file with its block
// index), and verifies the checkpoint is sane and the resumed dataset
// matches an uninterrupted run sample for sample.
func TestEngineKillAndResume(t *testing.T) {
	killAndResume(t, (*results.Sink).Close)
}

// TestEngineKillAndResumeBinary is the hard kill: a real kill never
// runs Close, so the file ends in flushed blocks with no trailing
// index, plus whatever the last checkpoint didn't cover.
func TestEngineKillAndResumeBinary(t *testing.T) {
	killAndResume(t, (*results.Sink).Flush)
}

// killAndResume runs the kill-and-resume drill; die is how the killed
// run leaves its sink. Block boundaries depend on where checkpoints
// flushed, so the file bytes legitimately differ from an uninterrupted
// run — the decoded sample stream must not.
func killAndResume(t *testing.T, die func(*results.Sink) error) {
	p := smallPlatform(t)
	cfg := equivCampaign()
	fp := cfg.Fingerprint(7, p.Population.Len())

	// Reference: the decoded sample stream of one uninterrupted run.
	var reference []results.Sample
	total, err := p.RunCampaignOpts(context.Background(), cfg, CampaignOptions{Workers: 4},
		func(s results.Sample) error { reference = append(reference, s); return nil })
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckPath := filepath.Join(dir, "checkpoint.json")
	meta := cfg.Meta(7, p.Population.Len(), p.Catalog.Len())
	_, sink, err := results.Create(dir, meta, results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	em := engine.NewMetrics(obs.NewRegistry())

	// Kill the run partway: the sink dies permanently after ~62% of the
	// samples, well past several CheckpointEvery=8 checkpoints.
	kill := errors.New("simulated kill")
	limit := total * 5 / 8
	var seen uint64
	_, err = p.RunCampaignOpts(context.Background(), cfg, CampaignOptions{
		Workers:         4,
		CheckpointPath:  ckPath,
		CheckpointEvery: 8,
		Commit:          sink.Commit,
		Fingerprint:     fp,
		EngineMetrics:   em,
	}, func(s results.Sample) error {
		if seen == limit {
			return kill
		}
		seen++
		return sink.Write(s)
	})
	if !errors.Is(err, kill) {
		t.Fatalf("interrupted run err = %v, want simulated kill", err)
	}
	if err := die(sink); err != nil {
		t.Fatal(err)
	}
	if em.CheckpointWrites.Value() == 0 {
		t.Fatal("no checkpoints written before the kill")
	}

	cp, err := engine.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Fingerprint != fp {
		t.Fatalf("checkpoint fingerprint %q, want %q", cp.Fingerprint, fp)
	}
	if cp.Round < 7 || cp.Samples == 0 || cp.SinkOffset == 0 {
		t.Fatalf("implausible checkpoint %+v", cp)
	}

	// Resume with a different worker count: truncate the sink to the
	// durable offset and continue from the watermark.
	reopened, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink2, err := reopened.Resume(cp.SinkOffset)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.RunCampaignOpts(context.Background(), cfg, CampaignOptions{
		Workers:         3,
		CheckpointPath:  ckPath,
		CheckpointEvery: 8,
		Commit:          sink2.Commit,
		Fingerprint:     fp,
		StartRound:      cp.Round + 1,
		StartSamples:    cp.Samples,
	}, sink2.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("resumed run total = %d, want %d", n, total)
	}

	var got []results.Sample
	if err := reopened.ForEach(func(s results.Sample) error { got = append(got, s); return nil }); err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != total {
		t.Fatalf("resumed store holds %d samples, want %d", len(got), total)
	}
	for i := range got {
		a, b := got[i], reference[i]
		if a.ProbeID != b.ProbeID || a.Region != b.Region || !a.Time.Equal(b.Time) ||
			a.RTTms != b.RTTms || a.Lost != b.Lost {
			t.Fatalf("sample %d diverges after resume: %+v vs %+v", i, a, b)
		}
	}
}

// TestRunCampaignCancelMidRound asserts the satellite promptness fix: a
// context cancelled in the middle of a round stops the synthesizer within
// ~256 samples instead of at the next round boundary.
func TestRunCampaignCancelMidRound(t *testing.T) {
	p := smallPlatform(t)
	cfg := TestCampaign() // one round is ~400 samples on smallPlatform

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n uint64
	emitted, err := p.RunCampaign(ctx, cfg, func(results.Sample) error {
		n++
		if n == 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted > 100+ctxCheckEvery {
		t.Errorf("cancellation lagged: %d samples emitted after cancel at 100", emitted)
	}
}

// TestEngineCampaignHonorsContext mirrors the serial cancellation test on
// the engine path.
func TestEngineCampaignHonorsContext(t *testing.T) {
	p := smallPlatform(t)
	ctx, cancel := context.WithCancel(context.Background())
	var n uint64
	_, err := p.RunCampaignOpts(ctx, TestCampaign(), CampaignOptions{Workers: 4}, func(results.Sample) error {
		n++
		if n == 500 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestShardProbesPartition checks the sharder covers the population
// exactly once, in order, for awkward worker counts.
func TestShardProbesPartition(t *testing.T) {
	p := smallPlatform(t)
	probes := p.Population.Public()
	for _, n := range []int{1, 2, 3, 7, len(probes)} {
		shards := shardProbes(probes, n)
		if len(shards) != n {
			t.Fatalf("n=%d: %d shards", n, len(shards))
		}
		i := 0
		for _, sh := range shards {
			for _, pr := range sh {
				if pr != probes[i] {
					t.Fatalf("n=%d: shard order diverges at %d", n, i)
				}
				i++
			}
		}
		if i != len(probes) {
			t.Fatalf("n=%d: shards cover %d probes, want %d", n, i, len(probes))
		}
	}
}

// TestCampaignFingerprint pins the fingerprint's sensitivity: any
// config, seed, or census change must produce a different value, while
// the worker count must not be part of it at all.
func TestCampaignFingerprint(t *testing.T) {
	cfg := TestCampaign()
	base := cfg.Fingerprint(1, 200)
	if base != cfg.Fingerprint(1, 200) {
		t.Fatal("fingerprint not stable")
	}
	if base == cfg.Fingerprint(2, 200) {
		t.Error("seed change not reflected")
	}
	if base == cfg.Fingerprint(1, 201) {
		t.Error("census change not reflected")
	}
	mod := cfg
	mod.Interval = 6 * time.Hour
	if base == mod.Fingerprint(1, 200) {
		t.Error("interval change not reflected")
	}
}
