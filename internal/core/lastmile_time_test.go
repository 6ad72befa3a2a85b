package core_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/stats"
)

// TestLastMileOutOfOrderTime pins Figure 7 and the KS test on a store
// not written in time order, where the row buffer holds a time run per
// row or per few rows. The month-long campaign's timestamps are
// rewritten: consecutive rows alternate between an hour before and an
// hour after a week edge, so one block's rows straddle a bin edge, and
// every 500 rows the edge moves, often backwards in time. The store
// grows in steps that move nearest regions, so a HotSuite's update walks
// the row chain into old chunks and resolves their runs. After every
// step the hot report, a cold scan and the row oracle must equal a
// reference that bins each sample on its own. A kept row before the
// series start must fail Figure 7 and leave a Figure 6-only report.
func TestLastMileOutOfOrderTime(t *testing.T) {
	src, w, cfg := fileDataset(t)
	ctx := context.Background()
	const week = 7 * 24 * time.Hour
	var all []results.Sample
	if err := src.ForEach(func(s results.Sample) error {
		all = append(all, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for j := range all {
		group := j / 500
		edge := cfg.Start.Add(time.Duration(1+group*3%5) * week)
		all[j].Time = edge.Add(-time.Hour)
		if j/(1+group%3)%2 == 1 {
			all[j].Time = edge.Add(time.Hour)
		}
	}

	store, sink, err := results.Create(t.TempDir(), src.Meta(), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var written []results.Sample
	write := func(smps []results.Sample) {
		t.Helper()
		for _, s := range smps {
			if err := sink.Write(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		written = append(written, smps...)
	}
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	check := func(step int, leg string, rep *core.LastMileReport, s *core.Suite) {
		t.Helper()
		want, wantKS := lastMileReference(t, w.Index, written, cfg.Start, week)
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("step %d: the %s Figure 7 differs from the per-sample reference", step, leg)
		}
		if s == nil {
			return
		}
		if got := significance(t, s); got != wantKS {
			t.Errorf("step %d: the %s KS result %s, reference %s", step, leg, got, wantKS)
		}
	}

	const steps = 6
	piece := len(all) / (steps + 1)
	write(all[:piece])
	hot, err := core.NewHotSuite(store, w.Index, cfg.Start, week, core.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for step := 0; step <= steps; step++ {
		if step > 0 {
			cut := len(written)
			end := piece * (step + 1)
			if step == steps {
				end = len(all)
			}
			write(all[cut:end])
			flips += len(flippedProbes(w.Index, written, cut))
			covered, _ := hot.Covered()
			fi, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			blocks, stable, err := colf.Locate(f, fi.Size(), covered)
			if err != nil || len(blocks) == 0 {
				t.Fatalf("located %d blocks past %d: %v", len(blocks), covered, err)
			}
			if _, err := hot.Advance(ctx, f, fi.Size(), blocks, stable, scan.Config{Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := hot.Report()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(step, "hot", rep.LastMile, hot.Suite())
		cold, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, week, 3, nil, core.SnapshotOptions{})
		if err != nil {
			t.Fatal(err)
		}
		check(step, "cold", cold.LastMile, nil)
		oracle, err := core.RowOracle(store, w.Index, cfg.Start, week)
		if err != nil {
			t.Fatal(err)
		}
		orep, err := oracle.Nearest.LastMile()
		if err != nil {
			t.Fatal(err)
		}
		check(step, "oracle", orep, oracle)
	}
	if flips == 0 {
		t.Fatal("no step moved a nearest region; the chain walk went untested")
	}
	t.Logf("%d steps, %d nearest-region flips", steps+1, flips)

	// A kept row of an admitted probe, moved before the series start.
	nearest := nearestRegions(w.Index, all)
	var mem results.Memory
	early := false
	for _, s := range all {
		if access, tier := w.Index.AccessTier(s.ProbeID); !early && !s.Lost && s.Region == nearest[s.ProbeID] &&
			tier <= geo.Tier2 && (access == core.AccessWired || access == core.AccessWireless) {
			s.Time, early = cfg.Start.Add(-time.Minute), true
		}
		if err := mem.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := core.ScanMemory(&mem, w.Index, cfg.Start, week, core.PassLastMile); err == nil || !strings.Contains(err.Error(), "precedes series start") {
		t.Errorf("pre-start kept row: Figure 7 err = %v", err)
	}
	if _, err := core.ScanMemory(&mem, w.Index, cfg.Start, week, core.PassFullDist); err != nil {
		t.Errorf("pre-start kept row: Figure 6 err = %v", err)
	}
}

// lastMileReference is Figure 7 and its KS result computed sample by
// sample: the delivered rows of each admitted probe's nearest region,
// each in bin ⌊(t − start) / width⌋, with per-bin medians and quartiles.
func lastMileReference(t *testing.T, idx *core.Index, smps []results.Sample, start time.Time, width time.Duration) (*core.LastMileReport, string) {
	t.Helper()
	type key struct {
		wired bool
		bin   int
	}
	nearest := nearestRegions(idx, smps)
	sets := map[key][]float64{}
	var wired, wireless stats.Dist
	for _, s := range smps {
		access, tier := idx.AccessTier(s.ProbeID)
		if s.Lost || !idx.Known(s.ProbeID) || s.Region != nearest[s.ProbeID] || tier > geo.Tier2 || (access != core.AccessWired && access != core.AccessWireless) {
			continue
		}
		k := key{access == core.AccessWired, int(s.Time.Sub(start) / width)}
		sets[k] = append(sets[k], s.RTTms)
		d := &wireless
		if k.wired {
			d = &wired
		}
		if err := d.Add(s.RTTms); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]key, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int { return a.bin - b.bin })
	rep := &core.LastMileReport{}
	for _, k := range keys {
		set := sets[k]
		slices.Sort(set)
		at := func(i int) (float64, error) { return set[i], nil }
		pt := stats.SeriesPoint{Start: start.Add(time.Duration(k.bin) * width), N: len(set)}
		pt.Median, _ = stats.QuantileOf(len(set), 0.5, at)
		pt.P25, _ = stats.QuantileOf(len(set), 0.25, at)
		pt.P75, _ = stats.QuantileOf(len(set), 0.75, at)
		if k.wired {
			rep.Wired = append(rep.Wired, pt)
		} else {
			rep.Wireless = append(rep.Wireless, pt)
		}
	}
	ks, err := stats.KolmogorovSmirnov(&wired, &wireless)
	if err != nil {
		t.Fatal(err)
	}
	return rep, fmt.Sprintf("%+v", ks)
}
