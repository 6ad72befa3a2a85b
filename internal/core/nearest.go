package core

import (
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
type NearestPass struct {
	idx *Index
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

// timedRTT is one kept last-mile sample, shaped so whole streams feed
// stats.TimeSeries.AddBulk.
type timedRTT = stats.TimedSample

// lastMile reports whether the probe enters the Figure 7 comparison:
// tier-1/tier-2 country and a wired or wireless tag.
func (i probeInfo) lastMile() bool {
	return i.tier <= geo.Tier2 && (i.access == AccessWired || i.access == AccessWireless)
}

// NewNearestPass builds the pass.
func NewNearestPass(idx *Index) *NearestPass {
	p := &NearestPass{idx: idx, ids: make(map[string]uint16), probes: make([]probeRows, len(idx.byID))}
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
// by continent, probes in ascending order and rows in file order.
func (p *NearestPass) FullDist() (*CDFReport, error) {
	rep := &CDFReport{byContinent: make(map[geo.Continent]*stats.Dist)}
	var kept []float64
	for id := range p.probes {
		r := &p.probes[id]
		if len(r.rtt) == 0 {
			continue
		}
		kept = kept[:0]
		nearest := r.region[r.best]
		for k, region := range r.region {
			if region == nearest {
				kept = append(kept, r.rtt[k])
			}
		}
		ct := p.idx.continents[id]
		d := rep.byContinent[ct]
		if d == nil {
			d = &stats.Dist{}
			rep.byContinent[ct] = d
		}
		if err := d.AddBulk(kept); err != nil {
			return nil, err
		}
	}
	if len(rep.byContinent) == 0 {
		return nil, errors.New("analysis: no delivered samples")
	}
	return rep, nil
}

// forEachKept walks the nearest-region samples of the Figure 7 probes
// in ascending probe order, one probe per call (a probe's samples share
// its access class, so callers can bulk-fold them). samples is reused
// between calls.
func (p *NearestPass) forEachKept(fn func(access AccessClass, samples []timedRTT) error) error {
	var kept []timedRTT
	delivered := false
	for id := range p.probes {
		r := &p.probes[id]
		delivered = delivered || len(r.rtt) > 0
		if len(r.nanos) == 0 {
			continue
		}
		kept = kept[:0]
		nearest := r.region[r.best]
		for k, region := range r.region {
			if region == nearest {
				kept = append(kept, timedRTT{T: time.Unix(0, r.nanos[k]).UTC(), V: r.rtt[k]})
			}
		}
		if err := fn(p.idx.byID[id].access, kept); err != nil {
			return err
		}
	}
	if !delivered {
		return errors.New("analysis: no delivered samples")
	}
	return nil
}

// LastMile reports Figure 7: the delivered nearest-region samples of
// wired- and wireless-tagged probes binned into windows of the given
// width, with per-bin medians and quartiles. Following the paper's
// methodology, only probes "deployed in similar regions in both sets"
// enter the comparison: tier-1/tier-2 countries, where the access link
// rather than the transit path dominates the difference.
func (p *NearestPass) LastMile(start time.Time, binWidth time.Duration) (*LastMileReport, error) {
	wired, err := stats.NewTimeSeries(start, binWidth)
	if err != nil {
		return nil, err
	}
	wireless, err := stats.NewTimeSeries(start, binWidth)
	if err != nil {
		return nil, err
	}
	err = p.forEachKept(func(access AccessClass, samples []timedRTT) error {
		if access == AccessWired {
			return wired.AddBulk(samples)
		}
		return wireless.AddBulk(samples)
	})
	if err != nil {
		return nil, err
	}
	rep := &LastMileReport{}
	if rep.Wired, err = wired.Points(); err != nil {
		return nil, err
	}
	if rep.Wireless, err = wireless.Points(); err != nil {
		return nil, err
	}
	if len(rep.Wired) == 0 || len(rep.Wireless) == 0 {
		return nil, errors.New("analysis: a last-mile class has no samples")
	}
	return rep, nil
}

// Significance runs the wired-vs-wireless two-sample
// Kolmogorov-Smirnov test over the population LastMile reports,
// confirming the gap is a distributional difference and not a binning
// artifact.
func (p *NearestPass) Significance() (stats.KSResult, error) {
	var wired, wireless stats.Dist
	err := p.forEachKept(func(access AccessClass, samples []timedRTT) error {
		d := &wireless
		if access == AccessWired {
			d = &wired
		}
		for _, s := range samples {
			if err := d.Add(s.V); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return stats.KSResult{}, err
	}
	return stats.KolmogorovSmirnov(&wired, &wireless)
}
