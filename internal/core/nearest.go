package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"
	"unsafe"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/stats"
)

// NearestPass is the one accumulator behind Figures 6, 7 and 8 and the
// last-mile KS test, which all read "every ping to the probe's closest
// region". Which region that is stays open until the last sample — an
// append can move it — so the pass buffers every delivered sample of
// every known probe and the reports keep the rows of the region that
// won. Holding all rows rather than the winning region's is what lets a
// resident pass be advanced by a delta instead of rescanning the store
// when a probe's nearest region flips.
//
// The buffer is one column chunk per observed block, in file order:
// probe, interned region id and RTT, allocated once at the block's
// delivered count (14 bytes per sample), and the timestamps as runs a
// round's rows share, 16 bytes each. Beside it the pass keeps each
// probe's best row, whose region is the probe's nearest. A report
// filters the chunks against that per-probe nearest region and sorts
// only the rows it keeps, about one in twenty. The §4.1 provider table
// (Providers) reads every buffered row, and a lost count per region.
//
// Once a report has been taken, the pass also keeps that figure's kept
// rows resident as ascending multisets (keptSets): the next report
// filters only the chunks appended since, reaches the rows of a probe
// whose nearest region flipped through a per-probe row chain (rowChain),
// and wraps the slices without gathering or sorting the rest.
//
// A fold that is reported once and never advanced needs none of that
// slack, and reads the store twice instead (Suite.keepNearest): a pass
// with a row filter (keep) still offers every row to best but buffers
// only the rows the filter names, in chunks of exactly the kept count.
type NearestPass struct {
	idx *Index
	// start and binWidth are the Figure 7 bin geometry.
	start    time.Time
	binWidth time.Duration
	// regions interns the region names the known probes' rows reference,
	// in first-reference order; ids inverts it, and lost counts each
	// region's lost rows.
	regions []string
	ids     map[string]uint16
	lost    []int
	// chunks is the row buffer, one chunk per observed block.
	chunks []rowChunk
	// keep, when non-nil, is the row filter: per probe, the region id of
	// the only rows the pass buffers, -1 for none. scratch is where a
	// filtered block's kept rows gather before they are copied out.
	keep    []int32
	scratch rowChunk
	// best is dense by probe ID, like Index.byID.
	best []bestRow
	// chain links the chunks' rows by probe, as far as a report has
	// needed it.
	chain rowChain
	// remap is scratch: a block's dictionary codes (ObserveBlock) or a
	// later pass's region ids (Merge) as ids of this pass, -1 until a
	// kept row needs the entry.
	remap []int32
	// full and weeks are the resident Figure 6 and Figure 7 multisets,
	// nil until the first report that reads them.
	full  *keptSets[geo.Continent]
	weeks *keptSets[weekKey]
}

// weekKey names one Figure 7 multiset: an access class and a bin.
type weekKey struct {
	access AccessClass
	bin    int
}

// rowChunk is one block's delivered samples of known probes, in file
// order: three parallel columns and the rows' timestamps as runs.
type rowChunk struct {
	probe  []int32
	region []uint16 // the pass's interned region id
	rtt    []float64
	times  []timeRun
}

// timeRun stamps the rows from the previous run's end up to end.
type timeRun struct {
	end   int32
	nanos int64 // unix nanoseconds
}

// add appends one delivered sample.
func (c *rowChunk) add(probe int, region uint16, rtt float64, nanos int64) {
	c.probe = append(c.probe, int32(probe))
	c.region = append(c.region, region)
	c.rtt = append(c.rtt, rtt)
	if n := len(c.times); n == 0 || c.times[n-1].nanos != nanos {
		c.times = append(c.times, timeRun{nanos: nanos})
	}
	c.times[len(c.times)-1].end = int32(len(c.rtt))
}

// emptied returns c's columns at length zero, for reuse.
func (c *rowChunk) emptied() rowChunk {
	return rowChunk{probe: c.probe[:0], region: c.region[:0], rtt: c.rtt[:0], times: c.times[:0]}
}

// clone copies c into columns of exactly its length.
func (c *rowChunk) clone() rowChunk {
	return rowChunk{
		probe:  append(make([]int32, 0, len(c.probe)), c.probe...),
		region: append(make([]uint16, 0, len(c.region)), c.region...),
		rtt:    append(make([]float64, 0, len(c.rtt)), c.rtt...),
		times:  append(make([]timeRun, 0, len(c.times)), c.times...),
	}
}

// bestRow is a probe's row of the lowest RTT, the earliest such row on a
// tie: strict < with first-wins is the sequential fold, and observing in
// file order and merging earlier-pass-wins reproduces it exactly. region
// is the probe's nearest region.
type bestRow struct {
	rtt    float64
	region uint16
	seen   bool
}

// offer folds a later row into the best one.
func (b *bestRow) offer(region uint16, rtt float64) {
	if !b.seen || rtt < b.rtt {
		*b = bestRow{rtt: rtt, region: region, seen: true}
	}
}

// lastMile reports whether the probe enters the Figure 7 comparison:
// tier-1/tier-2 country and a wired or wireless tag.
func (i probeInfo) lastMile() bool {
	return i.tier <= geo.Tier2 && (i.access == AccessWired || i.access == AccessWireless)
}

// NewNearestPass builds the pass; start and binWidth (positive) are the
// Figure 7 bin geometry.
func NewNearestPass(idx *Index, start time.Time, binWidth time.Duration) *NearestPass {
	return &NearestPass{idx: idx, start: start, binWidth: binWidth, ids: make(map[string]uint16), best: make([]bestRow, len(idx.byID))}
}

// kept returns an empty pass over p's index, geometry and interned
// regions that buffers only the rows keep names. Starting from p's ids
// is what lets keep name regions; each pass gets its own copy, which a
// region p never saw would grow, so passes folding in parallel share
// nothing they write.
func (p *NearestPass) kept(keep []int32) *NearestPass {
	q := NewNearestPass(p.idx, p.start, p.binWidth)
	q.regions, q.ids, q.lost = slices.Clone(p.regions), maps.Clone(p.ids), make([]int, len(p.regions))
	q.keep = keep
	return q
}

// nearest is, per probe, the id of its nearest region — its best row's —
// when admit accepts the probe, and -1 for a probe admit refuses or that
// had no delivered row.
func (p *NearestPass) nearest(admit func(id int) bool) []int32 {
	nearest := make([]int32, len(p.best))
	for id, b := range p.best {
		nearest[id] = -1
		if b.seen && admit(id) {
			nearest[id] = int32(b.region)
		}
	}
	return nearest
}

// intern returns the pass's id for a region name.
func (p *NearestPass) intern(name string) (uint16, error) {
	if id, ok := p.ids[name]; ok {
		return id, nil
	}
	if len(p.regions) > math.MaxUint16 {
		return 0, fmt.Errorf("analysis: more than %d distinct regions", math.MaxUint16+1)
	}
	id := uint16(len(p.regions))
	p.regions = append(p.regions, name)
	p.lost = append(p.lost, 0)
	p.ids[name] = id
	return id, nil
}

// Columns implements Pass: region names come from the block dictionary
// and Figure 7 bins by time.
func (p *NearestPass) Columns() colf.ColumnSet { return colf.ColTime | colf.ColRegionIDs }

// ObserveBlock implements Pass: the block's kept rows become one chunk,
// and a known probe's lost row counts against its region. Unfiltered,
// the chunk is allocated once at the CRC-checked footer's delivered
// count — or at the row count when the footer does not describe the
// rows at hand (a block compacted to a predicate's rows) — and its time
// runs at the block's timestamp changes; filtered, the rows gather in
// the reused scratch chunk and are copied out at their own count. A
// dictionary entry is interned the first time a known probe's row
// references it — at most one map lookup per entry per block, and the
// table never names a region no such row holds.
func (p *NearestPass) ObserveBlock(blk *colf.Block) error {
	p.remap = p.remap[:0]
	for range blk.Dict {
		p.remap = append(p.remap, -1)
	}
	var ch rowChunk
	if p.keep != nil {
		ch = p.scratch.emptied()
	} else {
		n := blk.Zone.Delivered
		if blk.Zone.Rows != blk.Rows() {
			n = blk.Rows()
		}
		runs := 0
		for i, t := range blk.TimeNano {
			if i == 0 || t != blk.TimeNano[i-1] {
				runs++
			}
		}
		ch = rowChunk{probe: make([]int32, 0, n), region: make([]uint16, 0, n), rtt: make([]float64, 0, n), times: make([]timeRun, 0, runs)}
	}
	lastProbe, known := 0, false
	var best *bestRow
	for i, probe := range blk.Probe {
		if probe != lastProbe {
			lastProbe, known = probe, p.idx.Known(probe)
			if known {
				best = &p.best[probe]
			}
		}
		if !known {
			continue
		}
		code := blk.RegionID[i]
		id := p.remap[code]
		if id < 0 {
			fresh, err := p.intern(blk.Dict[code])
			if err != nil {
				return err
			}
			id = int32(fresh)
			p.remap[code] = id
		}
		if blk.Lost[i] {
			p.lost[id]++
			continue
		}
		best.offer(uint16(id), blk.RTT[i])
		if p.keep != nil && p.keep[probe] != id {
			continue
		}
		ch.add(probe, uint16(id), blk.RTT[i], blk.TimeNano[i])
	}
	if p.keep != nil {
		p.scratch, ch = ch, ch.clone()
	}
	if len(ch.rtt) > 0 {
		p.chunks = append(p.chunks, ch)
	}
	return nil
}

// Merge implements Pass: other's rows follow the receiver's in file
// order, so the receiver takes over other's chunks — relabelling their
// region ids in place, not copying rows — adds other's lost counts, and
// its best row wins a tie. other must not be used afterwards.
func (p *NearestPass) Merge(other Pass) error {
	o, ok := other.(*NearestPass)
	if !ok {
		return mergeTypeError("NearestPass", other)
	}
	if len(o.best) != len(p.best) {
		return errors.New("analysis: cannot merge nearest-region passes over different indexes")
	}
	p.remap = p.remap[:0]
	for _, name := range o.regions {
		id, err := p.intern(name)
		if err != nil {
			return err
		}
		p.remap = append(p.remap, int32(id))
	}
	for id, n := range o.lost {
		p.lost[p.remap[id]] += n
	}
	for _, ch := range o.chunks {
		for i, id := range ch.region {
			ch.region[i] = uint16(p.remap[id])
		}
	}
	p.chunks = append(p.chunks, o.chunks...)
	o.chunks = nil
	for id, b := range o.best {
		if b.seen {
			p.best[id].offer(uint16(p.remap[b.region]), b.rtt)
		}
	}
	return nil
}

// FullDist reports Figure 6: each probe's nearest-region RTTs grouped
// by continent. The distributions adopt the resident sets, which no
// later update writes to.
func (p *NearestPass) FullDist() (*CDFReport, error) {
	if p.full == nil {
		p.full = newKeptSets[geo.Continent]()
	}
	err := p.full.sync(p, func(int) bool { return true }, func(id int, _ *rowChunk, _ int) (geo.Continent, error) {
		return p.idx.continents[id], nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.full.sets) == 0 {
		return nil, errors.New("analysis: no delivered samples")
	}
	rep := &CDFReport{byContinent: make(map[geo.Continent]*stats.Dist, len(p.full.sets))}
	for ct, set := range p.full.sets {
		rep.byContinent[ct] = stats.FromSorted(set)
	}
	return rep, nil
}

// syncWeeks brings the Figure 7 multisets up to the buffered rows: the
// nearest-region samples of the Figure 7 probes, keyed by access class
// and bin. A sample before the series start is refused.
func (p *NearestPass) syncWeeks() error {
	if p.weeks == nil {
		p.weeks = newKeptSets[weekKey]()
	}
	err := p.weeks.sync(p, func(id int) bool { return p.idx.byID[id].lastMile() }, func(id int, c *rowChunk, i int) (weekKey, error) {
		k, _ := slices.BinarySearchFunc(c.times, int32(i), func(r timeRun, i int32) int { return cmp.Compare(r.end, i+1) })
		t := time.Unix(0, c.times[k].nanos)
		if t.Before(p.start) {
			return weekKey{}, fmt.Errorf("stats: sample at %v precedes series start %v", t.UTC(), p.start)
		}
		return weekKey{p.idx.byID[id].access, int(t.Sub(p.start) / p.binWidth)}, nil
	})
	if err != nil {
		return err
	}
	if len(p.chunks) == 0 {
		return errors.New("analysis: no delivered samples")
	}
	return nil
}

// LastMile reports Figure 7: the delivered nearest-region samples of
// wired- and wireless-tagged probes binned into windows of the pass's
// bin width, with per-bin medians and quartiles. Following the paper's
// methodology, only probes "deployed in similar regions in both sets"
// enter the comparison: tier-1/tier-2 countries, where the access link
// rather than the transit path dominates the difference.
func (p *NearestPass) LastMile() (*LastMileReport, error) {
	if err := p.syncWeeks(); err != nil {
		return nil, err
	}
	keys := make([]weekKey, 0, len(p.weeks.sets))
	for k := range p.weeks.sets {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b weekKey) int { return cmp.Compare(a.bin, b.bin) })
	rep := &LastMileReport{}
	for _, k := range keys {
		set := p.weeks.sets[k]
		at := func(i int) (float64, error) { return set[i], nil }
		pt := stats.SeriesPoint{Start: p.start.Add(time.Duration(k.bin) * p.binWidth), N: len(set)}
		// The set is non-empty and every q is in [0, 1]: nothing fails.
		pt.Median, _ = stats.QuantileOf(len(set), 0.5, at)
		pt.P25, _ = stats.QuantileOf(len(set), 0.25, at)
		pt.P75, _ = stats.QuantileOf(len(set), 0.75, at)
		if k.access == AccessWired {
			rep.Wired = append(rep.Wired, pt)
		} else {
			rep.Wireless = append(rep.Wireless, pt)
		}
	}
	if len(rep.Wired) == 0 || len(rep.Wireless) == 0 {
		return nil, errors.New("analysis: a last-mile class has no samples")
	}
	return rep, nil
}

// Significance runs the wired-vs-wireless two-sample
// Kolmogorov-Smirnov test over the population LastMile reports,
// confirming the gap is a distributional difference and not a binning
// artifact. No report carries it: it is computed on demand, from the
// Figure 7 multisets.
func (p *NearestPass) Significance() (stats.KSResult, error) {
	if err := p.syncWeeks(); err != nil {
		return stats.KSResult{}, err
	}
	var wired, wireless stats.Dist
	for k, set := range p.weeks.sets {
		d := &wireless
		if k.access == AccessWired {
			d = &wired
		}
		if err := d.AddBulk(set); err != nil {
			return stats.KSResult{}, err
		}
	}
	return stats.KolmogorovSmirnov(&wired, &wireless)
}

// residentBytes is what the pass holds, by capacity: the row buffer
// (chunks, best rows and row chain) and the Figure 6/7 multisets.
func (p *NearestPass) residentBytes() (rows, kept int64) {
	rows = int64(cap(p.chunks))*int64(unsafe.Sizeof(rowChunk{})) + int64(cap(p.best))*int64(unsafe.Sizeof(bestRow{}))
	for _, c := range p.chunks {
		rows += int64(cap(c.probe))*4 + int64(cap(c.region))*2 + int64(cap(c.rtt))*8 + int64(cap(c.times))*int64(unsafe.Sizeof(timeRun{}))
	}
	rows += int64(cap(p.chain.base))*8 + int64(cap(p.chain.prev))*int64(unsafe.Sizeof([]int32(nil))) + int64(cap(p.chain.last))*4
	for _, prev := range p.chain.prev {
		rows += int64(cap(prev)) * 4
	}
	return rows, p.full.bytes() + p.weeks.bytes()
}

// keptSets is one figure's resident multisets: the kept rows of every
// probe the figure admits, grouped by key, each set an ascending slice.
// A slice a report has handed out is never written again — an update
// replaces the set of every key it touches and leaves the others — so
// published reports stay valid while the pass advances.
type keptSets[K comparable] struct {
	sets map[K][]float64
	// chunks counts the pass's chunks the sets account for; region is per
	// probe the nearest region their kept rows were chosen by, -1 for a
	// probe the figure does not admit or that had no row.
	chunks int
	region []int32
	// gathered counts the rows the last sync added or removed, read the
	// buffered rows it read.
	gathered, read int
}

// setDelta is what one sync changes in one set.
type setDelta struct{ add, remove []float64 }

func newKeptSets[K comparable]() *keptSets[K] {
	return &keptSets[K]{sets: make(map[K][]float64)}
}

// bytes is what the sets hold, by capacity; 0 before the first report.
func (v *keptSets[K]) bytes() int64 {
	if v == nil {
		return 0
	}
	n := int64(cap(v.region)) * 4
	for _, set := range v.sets {
		n += int64(cap(set)) * 8
	}
	return n
}

// sync brings the sets up to the pass's chunks. Every row of the chunks
// appended since the last sync joins its set when it is of its probe's
// nearest region and admit accepts the probe: one sequential filter
// against a dense per-probe table. A probe whose nearest region flipped
// is reached through the row chain instead: its kept rows of the chunks
// synced before leave, and those chunks' rows of its new nearest region
// join. key places row i of chunk c, a row of probe id. Each touched set
// is then rebuilt by one linear merge of its old slice with the sorted
// additions less the sorted removals; the others keep theirs. A cold
// report is this update with every chunk new. On error nothing changes.
func (v *keptSets[K]) sync(p *NearestPass, admit func(id int) bool, key func(id int, c *rowChunk, i int) (K, error)) error {
	v.gathered, v.read = 0, 0
	from := v.chunks
	if from == len(p.chunks) {
		return nil
	}
	var end int // the first row past the synced chunks
	if from > 0 {
		// An incremental sync reaches flipped probes through the chain: the
		// first one builds it, every later one extends it over the chunks
		// appended since.
		if err := p.chain.extend(p.chunks, len(p.best)); err != nil {
			return err
		}
		end = p.chain.base[from]
	}
	nearest := p.nearest(admit)
	deltas := make(map[K]*setDelta)
	var (
		last     K
		d        *setDelta
		gathered int
	)
	// gather adds row i of c, a row of probe id, to its set's additions or
	// removals. An addition that is not finite is refused, as Dist.Add
	// refuses it.
	gather := func(id int, c *rowChunk, i int, remove bool) error {
		x := c.rtt[i]
		if !remove && (math.IsNaN(x) || math.IsInf(x, 0)) {
			return fmt.Errorf("stats: invalid sample %v", x)
		}
		k, err := key(id, c, i)
		if err != nil {
			return err
		}
		if d == nil || k != last {
			if d = deltas[k]; d == nil {
				d = &setDelta{}
				deltas[k] = d
			}
			last = k
		}
		if remove {
			d.remove = append(d.remove, x)
		} else {
			d.add = append(d.add, x)
		}
		gathered++
		return nil
	}
	read := 0
	for id, was := range v.region {
		now := nearest[id]
		if was < 0 || was == now {
			continue
		}
		err := p.chain.walk(id, func(c, i, row int) error {
			read++
			if row >= end {
				return nil // the filter below takes the new rows
			}
			switch ch := &p.chunks[c]; int32(ch.region[i]) {
			case was:
				return gather(id, ch, i, true)
			case now:
				return gather(id, ch, i, false)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for c := from; c < len(p.chunks); c++ {
		ch := &p.chunks[c]
		read += len(ch.probe)
		for i, probe := range ch.probe {
			if int32(ch.region[i]) == nearest[probe] {
				if err := gather(int(probe), ch, i, false); err != nil {
					return err
				}
			}
		}
	}
	next := make(map[K][]float64, len(deltas))
	for k, d := range deltas {
		set, ok := applyDelta(v.sets[k], d)
		if !ok {
			return errors.New("analysis: a kept row to remove is missing from its set")
		}
		next[k] = set
	}
	for k, set := range next {
		if len(set) == 0 {
			delete(v.sets, k)
		} else {
			v.sets[k] = set
		}
	}
	v.chunks, v.region = len(p.chunks), nearest
	v.gathered, v.read = gathered, read
	return nil
}

// rowChain links every chained row to its probe's previous row, so the
// rows of one probe are reachable without walking the whole buffer. Row
// numbers are global: row i of chunk c is row base[c]+i. Chunks are
// chained in order and only as a whole, so appending the chain of a new
// chunk never rewrites an older one; about 4 bytes per row.
type rowChain struct {
	base []int
	prev [][]int32 // prev[c][i]: the probe's previous row, -1 for its first
	last []int32   // per probe: its latest chained row, -1 for none
}

// extend chains the chunks past those already chained; probes sizes the
// per-probe table.
func (c *rowChain) extend(chunks []rowChunk, probes int) error {
	if c.last == nil {
		c.last = make([]int32, probes)
		for i := range c.last {
			c.last[i] = -1
		}
	}
	next := 0
	if n := len(c.base); n > 0 {
		next = c.base[n-1] + len(c.prev[n-1])
	}
	for _, ch := range chunks[len(c.prev):] {
		if next+len(ch.probe) > math.MaxInt32 {
			return fmt.Errorf("analysis: more than %d buffered rows", math.MaxInt32)
		}
		prev := make([]int32, len(ch.probe))
		for i, probe := range ch.probe {
			prev[i], c.last[probe] = c.last[probe], int32(next+i)
		}
		c.base = append(c.base, next)
		c.prev = append(c.prev, prev)
		next += len(prev)
	}
	return nil
}

// walk calls fn for every chained row of probe, latest first, with its
// chunk, its index in the chunk and its global row number.
func (c *rowChain) walk(probe int, fn func(chunk, i, row int) error) error {
	k := len(c.base) - 1
	for row := int(c.last[probe]); row >= 0; {
		for c.base[k] > row {
			k--
		}
		i := row - c.base[k]
		if err := fn(k, i, row); err != nil {
			return err
		}
		row = int(c.prev[k][i])
	}
	return nil
}

// applyDelta returns old with d's additions and without its removals as
// a new ascending slice, leaving old untouched. The runs of old between
// the delta's values are found by binary search and copied whole, so a
// small delta into a large set costs a copy, not a comparison per
// element. ok is false when a removal is not in old.
func applyDelta(old []float64, d *setDelta) (set []float64, ok bool) {
	if len(d.remove) > len(old) {
		return nil, false
	}
	add, remove := d.add, d.remove
	slices.Sort(add)
	slices.Sort(remove)
	out := make([]float64, 0, len(old)+len(add)-len(remove))
	i := 0
	for len(add) > 0 || len(remove) > 0 {
		if i == len(old) && len(remove) == 0 {
			out = append(out, add...)
			break
		}
		if len(remove) > 0 && (len(add) == 0 || remove[0] <= add[0]) {
			j, found := slices.BinarySearch(old[i:], remove[0])
			if !found {
				return nil, false
			}
			out = append(out, old[i:i+j]...)
			i, remove = i+j+1, remove[1:]
			continue
		}
		j, _ := slices.BinarySearch(old[i:], add[0])
		out = append(append(out, old[i:i+j]...), add[0])
		i, add = i+j, add[1:]
	}
	return append(out, old[i:]...), true
}
