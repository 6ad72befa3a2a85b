package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/engine"
	"repro/internal/results"
	"repro/internal/world"
)

// paperProbes is the paper's probe census (shears' -probes default).
const paperProbes = 3300

// epochRounds is one checkpoint epoch: the engine's shipped commit
// cadence, so bench-written stores have the block boundaries a shears
// run would leave.
const epochRounds = engine.DefaultCheckpointEvery

// binWidth is the Figure 7 bin geometry every CLI analyzes with.
const binWidth = 7 * 24 * time.Hour

// worldSeed is the world and campaign seed every workload runs on: the
// paper's (shears' -seed default). The benchmark's --seed does not move
// it. Op cost follows the world — which continents the probes fall in,
// how many samples each window holds — by about a tenth from one world
// seed to the next (README, "Sizing evidence"), which is more than any
// bound here; --seed drives the request, window and panel sequences.
const worldSeed = 1

// campaign generates the paper campaign round by round, in process, so
// the bench can land new epochs in a store between timed ops.
type campaign struct {
	w   *world.World
	cfg atlas.CampaignConfig
	gen engine.GenFunc
}

func newCampaign() (*campaign, error) {
	w, err := world.Build(world.Config{Seed: worldSeed, Probes: paperProbes})
	if err != nil {
		return nil, err
	}
	cfg := atlas.PaperCampaign()
	// One shard over the whole population reproduces the serial sample
	// stream, which is what every engine worker count merges to.
	gen, err := w.Platform.ShardGen(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &campaign{w: w, cfg: cfg, gen: gen}, nil
}

func (c *campaign) meta() results.Meta {
	return c.cfg.Meta(worldSeed, c.w.Probes.Len(), c.w.Catalog.Len())
}

// roundTime is the timestamp of a round; a store holding rounds [0, r)
// spans [cfg.Start, roundTime(r)).
func (c *campaign) roundTime(r int) time.Time { return c.cfg.RoundTime(r) }

// rounds synthesizes rounds [from, to) into memory, one slice per
// round. This is the load generator making its inputs from the seed:
// it runs before set-up is timed, on as many goroutines as the bench
// has processors (a round's samples depend only on the seed and the
// round, never on which goroutine made them).
func (c *campaign) rounds(ctx context.Context, from, to int) ([][]results.Sample, error) {
	if from < 0 || to > c.cfg.Rounds() || from > to {
		return nil, fmt.Errorf("rounds [%d, %d) outside the campaign's %d", from, to, c.cfg.Rounds())
	}
	out := make([][]results.Sample, to-from)
	workers := max(runtime.GOMAXPROCS(0), 1)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := from + w; r < to; r += workers {
				var batch []results.Sample
				err := c.gen(ctx, 0, r, func(s results.Sample) error {
					batch = append(batch, s)
					return nil
				})
				if err != nil {
					errs[w] = fmt.Errorf("round %d: %w", r, err)
					return
				}
				out[r-from] = batch
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// writeRounds writes the rounds into sink with a Commit (flush + fsync)
// after every epochRounds of them and after the last, as the engine
// does at each checkpoint. It returns the samples written and the last
// committed offset.
func writeRounds(sink *results.Sink, rounds [][]results.Sample) (uint64, int64, error) {
	var (
		n   uint64
		off int64
		err error
	)
	for i, batch := range rounds {
		for _, s := range batch {
			if err := sink.Write(s); err != nil {
				return n, off, err
			}
		}
		n += uint64(len(batch))
		if (i+1)%epochRounds == 0 || i == len(rounds)-1 {
			if off, err = sink.Commit(); err != nil {
				return n, off, err
			}
		}
	}
	return n, off, nil
}

// createStore starts a binary store in dir holding the given rounds.
// The sink is returned open (committed, not finalized) so the caller
// can keep appending or Close it.
func (c *campaign) createStore(dir string, rounds [][]results.Sample) (*results.Store, *results.Sink, uint64, error) {
	store, sink, err := results.Create(dir, c.meta(), results.FormatBinary)
	if err != nil {
		return nil, nil, 0, err
	}
	samples, _, err := writeRounds(sink, rounds)
	if err != nil {
		sink.Close()
		return nil, nil, 0, err
	}
	return store, sink, samples, nil
}

// reopenForAppend resumes a finalized store at the end of its last
// block, dropping the trailing block index that Close will rewrite.
func reopenForAppend(store *results.Store) (*results.Sink, error) {
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	blocks := r.Blocks()
	end := int64(colf.HeaderSize)
	if len(blocks) > 0 {
		last := blocks[len(blocks)-1]
		end = last.Off + last.Len
	}
	closer.Close()
	return store.Resume(end)
}

// storeBlocks lists a finalized store's blocks.
func storeBlocks(store *results.Store) ([]colf.BlockInfo, error) {
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	return append([]colf.BlockInfo(nil), r.Blocks()...), nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
