package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

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
// snapshot-seeded or resident pass be advanced by a delta instead of
// rescanning the store when a probe's nearest region flips.
//
// The buffer is three parallel columns per probe, in file order: the
// interned region id, the RTT, and (only for the probes Figure 7
// admits) the timestamp. About 18 bytes per delivered sample, no
// per-(probe, region) object, nothing for the collector to walk.
//
// Once a report has been taken, the pass also keeps that figure's kept
// rows resident as ascending multisets (keptSets): the next report
// updates only the sets the rows appended since touched, and wraps the
// slices without gathering or sorting.
type NearestPass struct {
	idx *Index
	// start and binWidth are the Figure 7 bin geometry.
	start    time.Time
	binWidth time.Duration
	// regions interns the region names the buffered rows reference, in
	// first-reference order; ids inverts it.
	regions []string
	ids     map[string]uint16
	// probes is dense by probe ID, like Index.byID.
	probes []probeRows
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

// probeRows is one probe's buffered delivered samples.
type probeRows struct {
	region []uint16
	rtt    []float64
	nanos  []int64 // unix nanoseconds; stays empty unless lastMile
	// best is the row of the lowest RTT, the earliest such row on a tie:
	// strict < with first-wins is the sequential fold, and observing in
	// file order and merging earlier-pass-wins reproduces it exactly.
	// region[best] is the probe's nearest region.
	best int
	// lastMile caches probeInfo.lastMile: the probe enters Figure 7.
	lastMile bool
}

// lastMile reports whether the probe enters the Figure 7 comparison:
// tier-1/tier-2 country and a wired or wireless tag.
func (i probeInfo) lastMile() bool {
	return i.tier <= geo.Tier2 && (i.access == AccessWired || i.access == AccessWireless)
}

// NewNearestPass builds the pass; start and binWidth (positive) are the
// Figure 7 bin geometry.
func NewNearestPass(idx *Index, start time.Time, binWidth time.Duration) *NearestPass {
	p := &NearestPass{idx: idx, start: start, binWidth: binWidth, ids: make(map[string]uint16), probes: make([]probeRows, len(idx.byID))}
	for id, info := range idx.byID {
		p.probes[id].lastMile = info.known && info.lastMile()
	}
	return p
}

// rows returns the probe's buffer, nil for a probe outside the
// analysis set.
func (p *NearestPass) rows(probeID int) *probeRows {
	if !p.idx.Known(probeID) {
		return nil
	}
	return &p.probes[probeID]
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
	p.ids[name] = id
	return id, nil
}

// add appends one delivered sample.
func (r *probeRows) add(region uint16, rtt float64, nanos int64) {
	if len(r.rtt) == 0 || rtt < r.rtt[r.best] {
		r.best = len(r.rtt)
	}
	r.region = append(r.region, region)
	r.rtt = append(r.rtt, rtt)
	if r.lastMile {
		r.nanos = append(r.nanos, nanos)
	}
}

// Columns implements Pass: region names come from the block dictionary
// and Figure 7 bins by time.
func (p *NearestPass) Columns() colf.ColumnSet { return colf.ColTime | colf.ColRegionIDs }

// ObserveBlock implements Pass. A dictionary entry is interned the
// first time a kept row references it — at most one map lookup per
// entry per block, and the table never names a region no row holds.
func (p *NearestPass) ObserveBlock(blk *colf.Block) error {
	p.remap = p.remap[:0]
	for range blk.Dict {
		p.remap = append(p.remap, -1)
	}
	lastProbe := 0
	var r *probeRows
	for i, probe := range blk.Probe {
		if blk.Lost[i] {
			continue
		}
		if probe != lastProbe {
			lastProbe = probe
			r = p.rows(probe)
		}
		if r == nil {
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
		r.add(uint16(id), blk.RTT[i], blk.TimeNano[i])
	}
	return nil
}

// Merge implements Pass: other's rows follow the receiver's in file
// order, so each column concatenates and the receiver's best row wins
// a tie.
func (p *NearestPass) Merge(other Pass) error {
	o, ok := other.(*NearestPass)
	if !ok {
		return mergeTypeError("NearestPass", other)
	}
	if len(o.probes) != len(p.probes) {
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
	for i := range o.probes {
		src, dst := &o.probes[i], &p.probes[i]
		if len(src.rtt) == 0 {
			continue
		}
		if n := len(dst.rtt); n == 0 || src.rtt[src.best] < dst.rtt[dst.best] {
			dst.best = n + src.best
		}
		dst.region = slices.Grow(dst.region, len(src.region))
		for _, id := range src.region {
			dst.region = append(dst.region, uint16(p.remap[id]))
		}
		dst.rtt = append(dst.rtt, src.rtt...)
		dst.nanos = append(dst.nanos, src.nanos...)
	}
	return nil
}

// FullDist reports Figure 6: each probe's nearest-region RTTs grouped
// by continent. The distributions adopt the resident sets, which no
// later update writes to.
func (p *NearestPass) FullDist() (*CDFReport, error) {
	if p.full == nil {
		p.full = newKeptSets[geo.Continent](len(p.probes))
	}
	err := p.full.sync(p, func(*probeRows) bool { return true }, func(id int, _ *probeRows, _ int) (geo.Continent, error) {
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
		p.weeks = newKeptSets[weekKey](len(p.probes))
	}
	err := p.weeks.sync(p, func(r *probeRows) bool { return r.lastMile }, func(id int, r *probeRows, row int) (weekKey, error) {
		t := time.Unix(0, r.nanos[row])
		if t.Before(p.start) {
			return weekKey{}, fmt.Errorf("stats: sample at %v precedes series start %v", t.UTC(), p.start)
		}
		return weekKey{p.idx.byID[id].access, int(t.Sub(p.start) / p.binWidth)}, nil
	})
	if err != nil {
		return err
	}
	for i := range p.probes {
		if len(p.probes[i].rtt) > 0 {
			return nil
		}
	}
	return errors.New("analysis: no delivered samples")
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

// keptSets is one figure's resident multisets: the kept rows of every
// probe the figure admits, grouped by key, each set an ascending slice.
// A slice a report has handed out is never written again — an update
// replaces the set of every key it touches and leaves the others — so
// published reports stay valid while the pass advances.
type keptSets[K comparable] struct {
	sets map[K][]float64
	// synced and region are per probe: how many of its rows the sets
	// account for, and the nearest region their kept rows were chosen by.
	synced []int
	region []uint16
	// gathered counts the rows the last sync added or removed.
	gathered int
}

// setDelta is what one sync changes in one set.
type setDelta struct{ add, remove []float64 }

func newKeptSets[K comparable](probes int) *keptSets[K] {
	return &keptSets[K]{sets: make(map[K][]float64), synced: make([]int, probes), region: make([]uint16, probes)}
}

// sync brings the sets up to the pass's rows. For each probe admit
// accepts that has rows past synced: if its nearest region is the one
// its kept rows were chosen by (or nothing was kept yet), the new rows
// of that region join their sets; if the nearest region flipped, the old
// kept rows leave and every row of the new region joins. key places row
// i of probe id. Each touched set is then rebuilt by one linear merge of
// its old slice with the sorted additions less the sorted removals; the
// others keep theirs. A cold report is this update with every probe new.
// On error nothing changes.
func (v *keptSets[K]) sync(p *NearestPass, admit func(*probeRows) bool, key func(id int, r *probeRows, i int) (K, error)) error {
	v.gathered = 0
	deltas := make(map[K]*setDelta)
	var touched []int
	for id := range p.probes {
		r := &p.probes[id]
		from := v.synced[id]
		if from == len(r.rtt) || !admit(r) {
			continue
		}
		nearest := r.region[r.best]
		if from > 0 && v.region[id] != nearest {
			if err := v.collect(deltas, id, r, v.region[id], 0, from, true, key); err != nil {
				return err
			}
			from = 0
		}
		if err := v.collect(deltas, id, r, nearest, from, len(r.rtt), false, key); err != nil {
			return err
		}
		touched = append(touched, id)
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
	for _, id := range touched {
		r := &p.probes[id]
		v.synced[id], v.region[id] = len(r.rtt), r.region[r.best]
	}
	return nil
}

// collect gathers probe id's rows [from, to) of region into deltas, as
// removals or as additions. An addition that is not finite is refused,
// as Dist.Add refuses it.
func (v *keptSets[K]) collect(deltas map[K]*setDelta, id int, r *probeRows, region uint16, from, to int, remove bool, key func(int, *probeRows, int) (K, error)) error {
	var last K
	var d *setDelta
	for i := from; i < to; i++ {
		if r.region[i] != region {
			continue
		}
		x := r.rtt[i]
		if !remove && (math.IsNaN(x) || math.IsInf(x, 0)) {
			return fmt.Errorf("stats: invalid sample %v", x)
		}
		k, err := key(id, r, i)
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
		v.gathered++
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
