// Command dataset inspects a stored campaign dataset without loading it
// into memory: streaming summary statistics (exact min/max/mean over
// every decoded row), per-continent/per-band tallies, filtered re-export,
// and JSONL import/export. Every scan op runs through the parallel
// scanner; -workers groups the store's blocks and the output is
// identical for any worker count.
//
// Usage:
//
//	dataset -data ./dataset stats
//	dataset -data ./dataset continents
//	dataset -data ./dataset regions
//	dataset -data ./dataset -workers 8 hist
//	dataset -data ./dataset -continent AF -out ./africa filter
//	dataset -data ./dataset -out ./ds-jsonl -to jsonl convert
//	dataset -data ./ds-jsonl -out ./dataset2 -to binary convert
//	dataset -data ./dataset -since 2019-07-08T00:00:00Z -until 2019-07-15T00:00:00Z stats
//	dataset -data ./dataset -window 2019-07-08T00:00:00Z,2019-07-15T00:00:00Z window
//
// -since/-until restrict the scan ops to a time window; the scanner
// skips whole blocks via their zone maps, so a narrow window touches
// only a fraction of the file.
//
// A store is binary (meta.json + samples.bin); JSONL is the interchange
// encoding. convert -to jsonl exports a store as meta.json +
// samples.jsonl and convert -to binary imports such a directory. JSONL
// -> binary -> JSONL is byte-exact; binary -> JSONL -> binary
// reproduces samples.bin unless a campaign checkpoint sealed a short
// block in the original (the samples are the same either way).
//
// The window op answers from the temporal aggregate index (samples.tix)
// alone: it opens or builds the sidecar, composes the -window range
// from per-block records plus edge-block decodes, and prints
// per-continent quantiles along with how many block records and edge
// blocks the composition touched.
//
// The regions op folds the zones' per-region aggregate lists when the
// store carries them, decoding rows only for blocks that don't.
//
// Flags precede the op: flag parsing stops at the first positional
// argument.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/tix"
	"repro/internal/world"
)

// options bundles the command's knobs (one field per flag) plus the op.
type options struct {
	data      string
	op        string
	continent string
	out       string
	workers   int
	to        string // convert direction: "jsonl" exports, "binary" imports; empty picks by what -data holds
	since     string // RFC 3339 window start for scan ops
	until     string // RFC 3339 window end (exclusive) for scan ops
	window    string // "since,until" range for the window op
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dataset: ")
	var o options
	flag.StringVar(&o.data, "data", "dataset", "dataset directory")
	flag.StringVar(&o.continent, "continent", "", "continent filter for the filter op (two-letter code)")
	flag.StringVar(&o.out, "out", "", "output directory for the filter and convert ops")
	flag.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "scan worker count (output is identical for any value)")
	flag.StringVar(&o.to, "to", "", "convert direction: jsonl exports the store in -data, binary imports the JSONL directory in -data (default: export a store, import anything else)")
	flag.StringVar(&o.since, "since", "", "restrict scan ops to samples at or after this RFC 3339 time")
	flag.StringVar(&o.until, "until", "", "restrict scan ops to samples before this RFC 3339 time")
	flag.StringVar(&o.window, "window", "", "window op range as \"since,until\" (RFC 3339; either side may be empty for an open end)")
	flag.Parse()
	o.op = flag.Arg(0)
	if o.op == "" {
		o.op = "stats"
	}
	lines, err := run(o)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

func run(o options) ([]string, error) {
	if o.op == "convert" { // the one op whose -data may not be a store
		return convertOp(o.data, o.out, o.to)
	}
	store, err := results.Open(o.data)
	if err != nil {
		return nil, err
	}
	pred, err := windowPredicate(o.since, o.until)
	if err != nil {
		return nil, err
	}
	switch o.op {
	case "stats":
		return statsOp(store, pred, o.workers)
	case "continents":
		return continentsOp(store, pred, o.workers)
	case "regions":
		return regionsOp(store, pred, o.workers)
	case "filter":
		return filterOp(store, pred, o.continent, o.out, o.workers)
	case "hist":
		return histOp(store, pred, o.workers)
	case "window":
		return windowOp(store, o.window, o.since, o.until)
	default:
		return nil, fmt.Errorf("unknown op %q (want stats, continents, regions, hist, window, filter, or convert)", o.op)
	}
}

// windowPredicate builds the scan predicate for the -since/-until
// window; both empty yields nil (scan everything).
func windowPredicate(since, until string) (*colf.Predicate, error) {
	if since == "" && until == "" {
		return nil, nil
	}
	var p colf.Predicate
	var err error
	if since != "" {
		if p.Since, err = time.Parse(time.RFC3339, since); err != nil {
			return nil, fmt.Errorf("bad -since: %w", err)
		}
	}
	if until != "" {
		if p.Until, err = time.Parse(time.RFC3339, until); err != nil {
			return nil, fmt.Errorf("bad -until: %w", err)
		}
	}
	return &p, nil
}

// scanWith runs one pass per worker over the store's samples file and
// returns the first (merged) pass. Scan throughput goes to stderr so ops
// keep their exact stdout shape.
func scanWith(store *results.Store, pred *colf.Predicate, workers int, newPass func() scan.Pass) (scan.Pass, error) {
	var passes []scan.Pass
	st, err := scan.File(context.Background(), scan.Config{
		Path:      store.SamplesPath(),
		Workers:   workers,
		Predicate: pred,
		NewPasses: func(int) ([]scan.Pass, error) {
			p := newPass()
			passes = append(passes, p)
			return []scan.Pass{p}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	log.Printf("scan: %d samples in %v (%.1f MB/s, %.0f samples/s, %d workers, %d/%d blocks read, %d skipped, %d zone-resolved)",
		st.Samples, st.Duration.Round(time.Millisecond), st.MBPerSec(), st.SamplesPerSec(), st.Workers,
		st.BlocksRead, st.BlocksTotal, st.BlocksSkipped, st.BlocksZone)
	return passes[0], nil
}

// convertOp moves a dataset between the binary store and its JSONL
// interchange form, preserving sample order exactly: "jsonl" exports
// the store in data, "binary" imports the interchange directory in
// data, and an empty to exports when data is a store and imports
// otherwise.
func convertOp(data, out, to string) ([]string, error) {
	if out == "" {
		return nil, fmt.Errorf("convert needs -out")
	}
	if _, err := os.Stat(out); err == nil {
		return nil, fmt.Errorf("output %s already exists", out)
	}
	store, err := results.Open(data) // fails unless data is a store
	if to == "" {
		to = "jsonl"
		if err != nil {
			to = "binary"
		}
	}
	var n uint64
	from, jsonlDir := "binary", out
	switch to {
	case "jsonl":
		if err == nil {
			n, err = store.Export(out)
		}
	case "binary":
		from, jsonlDir = "jsonl", data
		store, n, err = results.Import(data, out)
	default:
		err = fmt.Errorf("unknown -to %q (want binary or jsonl)", to)
	}
	if err != nil {
		return nil, err
	}
	size := map[string]int64{}
	if size["binary"], err = fileSize(store.SamplesPath()); err != nil {
		return nil, err
	}
	if size["jsonl"], err = fileSize(filepath.Join(jsonlDir, results.InterchangeFile)); err != nil {
		return nil, err
	}
	return []string{fmt.Sprintf("converted %d samples %s (%d bytes) -> %s %s (%d bytes)",
		n, from, size[from], to, out, size[to])}, nil
}

// fileSize returns the on-disk size of path.
func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// statsPass keeps O(1) summary state: the row tallies and the exact
// min/max/mean of the delivered RTTs, so shards combine without
// replaying samples. It decodes every row, so a damaged block fails the
// op instead of being summarised from its footer.
type statsPass struct {
	total, lost   uint64
	sum, min, max float64
	delivered     uint64
}

// absorb folds a delivered-RTT aggregate (one row, or one shard) into
// the pass state.
func (p *statsPass) absorb(min, max, sum float64, delivered uint64) {
	if delivered == 0 {
		return
	}
	p.sum += sum
	if p.delivered == 0 || min < p.min {
		p.min = min
	}
	if p.delivered == 0 || max > p.max {
		p.max = max
	}
	p.delivered += delivered
}

func (p *statsPass) Columns() colf.ColumnSet { return 0 }

func (p *statsPass) ObserveBlock(blk *colf.Block) error {
	p.total += uint64(blk.Rows())
	for i, v := range blk.RTT {
		if blk.Lost[i] {
			p.lost++
			continue
		}
		p.absorb(v, v, v, 1)
	}
	return nil
}

func (p *statsPass) Merge(other scan.Pass) error {
	o := other.(*statsPass)
	p.total += o.total
	p.lost += o.lost
	p.absorb(o.min, o.max, o.sum, o.delivered)
	return nil
}

// statsOp scans the dataset once, keeping O(1) state per worker.
func statsOp(store *results.Store, pred *colf.Predicate, workers int) ([]string, error) {
	meta := store.Meta()
	merged, err := scanWith(store, pred, workers, func() scan.Pass { return &statsPass{} })
	if err != nil {
		return nil, err
	}
	p := merged.(*statsPass)
	if p.total == 0 {
		return nil, fmt.Errorf("dataset is empty")
	}
	size, err := fileSize(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	lines := []string{
		fmt.Sprintf("campaign: seed=%d %s..%s interval=%.0fh probes=%d regions=%d",
			meta.Seed, meta.Start.Format("2006-01-02"), meta.End.Format("2006-01-02"),
			meta.IntervalHours, meta.Probes, meta.Regions),
		fmt.Sprintf("storage: format=%s, %d bytes on disk (%.1f bytes/sample)",
			"binary", size, float64(size)/float64(p.total)),
		fmt.Sprintf("samples: %d total, %d delivered, %d lost (%.2f%%)",
			p.total, p.delivered, p.lost, 100*float64(p.lost)/float64(p.total)),
	}
	if p.delivered > 0 {
		lines = append(lines, fmt.Sprintf("rtt: min=%.1fms max=%.1fms mean=%.1fms",
			p.min, p.max, p.sum/float64(p.delivered)))
	}
	return lines, nil
}

// regionAgg is one region's tally.
type regionAgg struct {
	rows, delivered uint64
	sum             float64
}

// regionsPass tallies rows, delivered samples and mean delivered RTT
// per region. Whole blocks resolve from the zone's per-region aggregate
// list without decoding a row; blocks without the list (dictionaries
// past the zone cap) decode and fold by dictionary code.
type regionsPass struct {
	byRegion map[string]*regionAgg
	// accs caches the code → accumulator resolution for the current
	// block's dictionary.
	accs []*regionAgg
}

func (p *regionsPass) acc(region string) *regionAgg {
	a := p.byRegion[region]
	if a == nil {
		a = &regionAgg{}
		p.byRegion[region] = a
	}
	return a
}

func (p *regionsPass) Columns() colf.ColumnSet { return colf.ColRegionIDs }

func (p *regionsPass) ObserveBlock(blk *colf.Block) error {
	if cap(p.accs) < len(blk.Dict) {
		p.accs = make([]*regionAgg, len(blk.Dict))
	}
	p.accs = p.accs[:len(blk.Dict)]
	for i := range p.accs {
		p.accs[i] = nil
	}
	for i, code := range blk.RegionID {
		a := p.accs[code]
		if a == nil {
			a = p.acc(blk.Dict[code])
			p.accs[code] = a
		}
		a.rows++
		if !blk.Lost[i] {
			a.delivered++
			a.sum += blk.RTT[i]
		}
	}
	return nil
}

func (p *regionsPass) CanObserveZone(z colf.Zone) bool {
	return z.Rows == 0 || len(z.Regions) > 0
}

func (p *regionsPass) ObserveZone(z colf.Zone) error {
	for _, rz := range z.Regions {
		a := p.acc(rz.Region)
		a.rows += uint64(rz.Rows)
		a.delivered += uint64(rz.Delivered)
		a.sum += rz.RTTSum
	}
	return nil
}

func (p *regionsPass) Merge(other scan.Pass) error {
	for region, oa := range other.(*regionsPass).byRegion {
		a := p.acc(region)
		a.rows += oa.rows
		a.delivered += oa.delivered
		a.sum += oa.sum
	}
	return nil
}

// regionsOp prints the per-region tallies in region order.
func regionsOp(store *results.Store, pred *colf.Predicate, workers int) ([]string, error) {
	merged, err := scanWith(store, pred, workers, func() scan.Pass {
		return &regionsPass{byRegion: make(map[string]*regionAgg)}
	})
	if err != nil {
		return nil, err
	}
	p := merged.(*regionsPass)
	if len(p.byRegion) == 0 {
		return nil, fmt.Errorf("dataset is empty")
	}
	names := make([]string, 0, len(p.byRegion))
	for name := range p.byRegion {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := []string{"region                             rows  delivered   mean-rtt"}
	for _, name := range names {
		a := p.byRegion[name]
		mean := "-"
		if a.delivered > 0 {
			mean = fmt.Sprintf("%.1fms", a.sum/float64(a.delivered))
		}
		lines = append(lines, fmt.Sprintf("%-30s %9d %10d %10s", name, a.rows, a.delivered, mean))
	}
	return lines, nil
}

// histPass wraps the fixed-bin histogram, whose counts merge exactly.
type histPass struct{ h *stats.Histogram }

func (p *histPass) Columns() colf.ColumnSet { return 0 }

// ObserveBlock feeds the contiguous delivered runs of the RTT column
// to the histogram's bulk entry point.
func (p *histPass) ObserveBlock(blk *colf.Block) error {
	rtt, lost := blk.RTT, blk.Lost
	for i := 0; i < len(rtt); {
		if lost[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(rtt) && !lost[j] {
			j++
		}
		if err := p.h.AddBulk(rtt[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

func (p *histPass) Merge(other scan.Pass) error { return p.h.Merge(other.(*histPass).h) }

// histOp renders an ASCII histogram of the delivered RTTs (0-300 ms in
// 10 ms bins, plus an overflow bucket), scanning the dataset once.
func histOp(store *results.Store, pred *colf.Predicate, workers int) ([]string, error) {
	merged, err := scanWith(store, pred, workers, func() scan.Pass {
		h, err := stats.NewHistogram(0, 300, 30)
		if err != nil {
			panic(err) // static bounds; cannot fail
		}
		return &histPass{h: h}
	})
	if err != nil {
		return nil, err
	}
	h := merged.(*histPass).h
	if h.Total() == 0 {
		return nil, fmt.Errorf("dataset has no delivered samples")
	}
	var max uint64
	for _, bin := range h.Bins() {
		if bin.Count > max {
			max = bin.Count
		}
	}
	if h.Overflow() > max {
		max = h.Overflow()
	}
	const barWidth = 50
	bar := func(n uint64) string {
		if max == 0 {
			return ""
		}
		return strings.Repeat("#", int(n*barWidth/max))
	}
	lines := []string{fmt.Sprintf("RTT histogram (%d delivered samples)", h.Total())}
	for _, bin := range h.Bins() {
		lines = append(lines, fmt.Sprintf("%3.0f-%3.0fms %8d %s", bin.Lo, bin.Hi, bin.Count, bar(bin.Count)))
	}
	lines = append(lines, fmt.Sprintf("  >=300ms %8d %s", h.Overflow(), bar(h.Overflow())))
	return lines, nil
}

// continentsPass tallies delivered samples per continent.
type continentsPass struct {
	idx    *core.Index
	counts map[geo.Continent]uint64
	within map[geo.Continent]uint64
}

func (p *continentsPass) Columns() colf.ColumnSet { return 0 }

// ObserveBlock resolves the continent once per run of equal probe IDs
// (0 is no probe: the scanner has validated every ID positive).
func (p *continentsPass) ObserveBlock(blk *colf.Block) error {
	lastProbe, ok := 0, false
	var ct geo.Continent
	for i, probe := range blk.Probe {
		if blk.Lost[i] {
			continue
		}
		if probe != lastProbe {
			lastProbe = probe
			ct, ok = p.idx.Continent(probe)
		}
		if !ok {
			continue
		}
		p.counts[ct]++
		if blk.RTT[i] <= core.PLms {
			p.within[ct]++
		}
	}
	return nil
}

func (p *continentsPass) Merge(other scan.Pass) error {
	o := other.(*continentsPass)
	for ct, n := range o.counts {
		p.counts[ct] += n
	}
	for ct, n := range o.within {
		p.within[ct] += n
	}
	return nil
}

// continentsOp tallies delivered samples per continent; it rebuilds the
// probe census from the stored seed to map probe IDs.
func continentsOp(store *results.Store, pred *colf.Predicate, workers int) ([]string, error) {
	meta := store.Meta()
	w, err := world.Build(world.Config{Seed: meta.Seed, Probes: meta.Probes})
	if err != nil {
		return nil, err
	}
	merged, err := scanWith(store, pred, workers, func() scan.Pass {
		return &continentsPass{
			idx:    w.Index,
			counts: make(map[geo.Continent]uint64),
			within: make(map[geo.Continent]uint64),
		}
	})
	if err != nil {
		return nil, err
	}
	p := merged.(*continentsPass)
	lines := []string{"continent       samples     within-PL"}
	for _, ct := range geo.Continents() {
		if p.counts[ct] == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("%-14s %9d  %11.1f%%",
			ct.String(), p.counts[ct], 100*float64(p.within[ct])/float64(p.counts[ct])))
	}
	return lines, nil
}

// filterPass buffers the samples matching the continent filter; block
// groups concatenate in file order on merge, so the re-export preserves
// the original sample order exactly.
type filterPass struct {
	idx  *core.Index
	ct   geo.Continent
	kept []results.Sample
}

// Columns: a re-exported sample needs every field.
func (p *filterPass) Columns() colf.ColumnSet { return colf.ColAll }

func (p *filterPass) ObserveBlock(blk *colf.Block) error {
	for i, probe := range blk.Probe {
		if got, ok := p.idx.Continent(probe); ok && got == p.ct {
			p.kept = append(p.kept, results.FromRow(blk.Row(i)))
		}
	}
	return nil
}

func (p *filterPass) Merge(other scan.Pass) error {
	p.kept = append(p.kept, other.(*filterPass).kept...)
	return nil
}

// parseWindowRange parses the -window "since,until" pair; either side
// may be empty for an open end. An empty flag falls back to the
// -since/-until pair so both spellings work.
func parseWindowRange(window, since, until string) (time.Time, time.Time, error) {
	if window != "" {
		parts := strings.SplitN(window, ",", 2)
		if len(parts) != 2 {
			return time.Time{}, time.Time{}, fmt.Errorf("bad -window %q (want \"since,until\")", window)
		}
		since, until = parts[0], parts[1]
	}
	var sinceT, untilT time.Time
	var err error
	if since != "" {
		if sinceT, err = time.Parse(time.RFC3339, since); err != nil {
			return sinceT, untilT, fmt.Errorf("bad window start: %w", err)
		}
	}
	if until != "" {
		if untilT, err = time.Parse(time.RFC3339, until); err != nil {
			return sinceT, untilT, fmt.Errorf("bad window end: %w", err)
		}
	}
	if !sinceT.IsZero() && !untilT.IsZero() && !sinceT.Before(untilT) {
		return sinceT, untilT, fmt.Errorf("window start must precede end")
	}
	return sinceT, untilT, nil
}

// windowOp materializes one [since, until) window through the temporal
// aggregate index: it opens (or builds) samples.tix next to the
// samples file, composes the window from the block records' prefix rows
// plus edge-block decodes, and prints the per-continent quantiles along
// with exactly how the window was assembled and where the time went.
// The sample rows outside the edge blocks are never decoded.
func windowOp(store *results.Store, window, since, until string) ([]string, error) {
	sinceT, untilT, err := parseWindowRange(window, since, until)
	if err != nil {
		return nil, err
	}
	meta := store.Meta()
	w, err := world.Build(world.Config{Seed: meta.Seed, Probes: meta.Probes})
	if err != nil {
		return nil, err
	}
	sf, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	blocks := sf.Blocks()

	openStart := time.Now()
	ix, err := tix.Open(store.TixPath(), tix.Binding{
		PassSet: tix.PassSetCDF,
		Index:   w.Index.Fingerprint(),
		Meta:    core.MetaFingerprint(meta),
	}, blocks, nil)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	before := ix.Nodes()
	buildStart := time.Now()
	opened := buildStart.Sub(openStart)
	if err := ix.Extend(sf, blocks, w.Index); err != nil {
		return nil, err
	}
	extended := time.Since(buildStart)
	if built := ix.Nodes() - before; built > 0 {
		log.Printf("index: appended %d block records over %d sealed blocks in %v",
			built, len(blocks), extended.Round(time.Millisecond))
	}

	queryStart := time.Now()
	res, err := ix.View().Query(context.Background(), sf, blocks, sinceT, untilT, w.Index)
	if err != nil {
		return nil, err
	}
	// The curves and counts are composed; the quantiles below are what
	// load the slabs.
	var rows []string
	for _, ct := range res.Continents() {
		var qs [3]float64
		for i, q := range []float64{0.50, 0.95, 0.99} {
			if qs[i], err = res.Quantile(ct, q); err != nil {
				return nil, err
			}
		}
		rows = append(rows, fmt.Sprintf("%-14s %8d %8.1fms %8.1fms %8.1fms", ct.String(), res.N(ct), qs[0], qs[1], qs[2]))
	}
	elapsed := time.Since(queryStart)

	bound := func(t time.Time) string {
		if t.IsZero() {
			return "open"
		}
		return t.Format(time.RFC3339)
	}
	st := res.Stats
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	lines := []string{
		fmt.Sprintf("window: [%s, %s) open %v, extend %v, query %v (grids %v, block decode %v, fold %v, slabs %v for %d bytes, select %v)",
			bound(sinceT), bound(untilT), us(opened), us(extended), us(elapsed),
			us(st.GridCompose), us(st.EdgeDecode), us(st.Fold), us(st.SlabRead), st.SlabBytes, us(st.Select)),
		fmt.Sprintf("index: %d block records composed, %d edge blocks decoded, %d past frontier, %d skipped",
			st.Nodes, st.EdgeBlocks, st.FrontierBlocks, st.SkippedBlocks),
		fmt.Sprintf("rows: %d total, %d delivered, %d resolved samples", res.Rows, res.Delivered, res.Samples()),
	}
	if len(rows) == 0 {
		return append(lines, "no resolved samples in window"), nil
	}
	lines = append(lines, "continent       samples       p50       p95       p99")
	return append(lines, rows...), nil
}

// filterOp re-exports the samples of one continent into a new dataset.
func filterOp(store *results.Store, pred *colf.Predicate, continent, out string, workers int) ([]string, error) {
	if continent == "" || out == "" {
		return nil, fmt.Errorf("filter needs -continent and -out")
	}
	ct, err := geo.ParseContinent(continent)
	if err != nil {
		return nil, err
	}
	meta := store.Meta()
	w, err := world.Build(world.Config{Seed: meta.Seed, Probes: meta.Probes})
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(out); err == nil {
		return nil, fmt.Errorf("output %s already exists", out)
	}
	merged, err := scanWith(store, pred, workers, func() scan.Pass {
		return &filterPass{idx: w.Index, ct: ct}
	})
	if err != nil {
		return nil, err
	}
	kept := merged.(*filterPass).kept
	_, sink, err := results.Create(out, meta, results.FormatBinary)
	if err != nil {
		return nil, err
	}
	for _, s := range kept {
		if err := sink.Write(s); err != nil {
			sink.Close()
			return nil, err
		}
	}
	n := sink.Count()
	if err := sink.Close(); err != nil {
		return nil, err
	}
	return []string{fmt.Sprintf("wrote %d %s samples to %s", n, ct, out)}, nil
}
