package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/stats"
)

// Pass is the streaming-aggregate contract shared with the parallel
// scanner: ObserveBlock every decoded block, Merge a later group's
// partial state, and (per concrete type) Report the finished analysis.
// Every figure's analysis is a Pass, so one scan of the dataset can feed
// all of them at once.
type Pass = scan.Pass

// RowPass is a Pass that also folds one sample at a time. Observe must
// fold exactly the state ObserveBlock folds for the same rows in the
// same order: RunPasses over a results.Source is the sequential
// reference the block kernels are tested against, and the only way to
// analyse samples that are not in a store.
type RowPass interface {
	Pass
	Observe(s results.Sample) error
}

// RunPasses streams src once, feeding every sample to each pass in
// order. It is the sequential single-scan driver; the per-figure
// functions are thin wrappers over it.
func RunPasses(src results.Source, passes ...RowPass) error {
	if src == nil {
		return errors.New("analysis: nil source")
	}
	return src.ForEach(func(s results.Sample) error {
		for _, p := range passes {
			if err := p.Observe(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// nearestBest tracks one probe's lowest-RTT region. Strict < with
// first-wins ties matches the sequential fold: observing shards in file
// order and merging earlier-shard-wins reproduces it exactly.
type nearestBest struct {
	region string
	rtt    float64
}

type nearestTracker map[int]nearestBest

func (n nearestTracker) observe(s results.Sample) {
	if b, ok := n[s.ProbeID]; !ok || s.RTTms < b.rtt {
		n[s.ProbeID] = nearestBest{region: s.Region, rtt: s.RTTms}
	}
}

// merge folds a later shard's tracker in; the receiver (earlier shard)
// wins ties, mirroring file-order first-wins.
func (n nearestTracker) merge(other nearestTracker) {
	for id, ob := range other {
		if b, ok := n[id]; !ok || ob.rtt < b.rtt {
			n[id] = ob
		}
	}
}

// sortedProbeIDs returns the tracker's keys ascending, for deterministic
// report-time iteration.
func sortedProbeIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// unionProbeIDs returns the ascending union of a pass's live and
// pending-raw probe IDs — a snapshot-seeded pass holds a probe in
// either map (or both once partially materialized).
func unionProbeIDs[A, B any](live map[int]A, raw map[int]B) []int {
	ids := make([]int, 0, len(live)+len(raw))
	for id := range live {
		ids = append(ids, id)
	}
	for id := range raw {
		if _, ok := live[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// mergeTypeError is the uniform complaint for a Merge called with a
// different pass type.
func mergeTypeError(want string, got Pass) error {
	return fmt.Errorf("analysis: cannot merge %T into %s", got, want)
}

// ProximityPass accumulates Figure 4: per-country minimum RTT.
type ProximityPass struct {
	idx       *Index
	byCountry map[string]*proximityAcc
}

type proximityAcc struct {
	min     float64
	samples int
}

// NewProximityPass builds the pass.
func NewProximityPass(idx *Index) *ProximityPass {
	return &ProximityPass{idx: idx, byCountry: make(map[string]*proximityAcc)}
}

// Observe implements RowPass.
func (p *ProximityPass) Observe(s results.Sample) error {
	if s.Lost {
		return nil
	}
	country, ok := p.idx.Country(s.ProbeID)
	if !ok {
		return nil // privileged or unknown probe: filtered
	}
	a := p.byCountry[country]
	if a == nil {
		a = &proximityAcc{min: s.RTTms}
		p.byCountry[country] = a
	} else if s.RTTms < a.min {
		a.min = s.RTTms
	}
	a.samples++
	return nil
}

// Merge implements Pass. Minima and counts merge exactly, so the result
// is independent of the sharding.
func (p *ProximityPass) Merge(other Pass) error {
	o, ok := other.(*ProximityPass)
	if !ok {
		return mergeTypeError("ProximityPass", other)
	}
	for country, oa := range o.byCountry {
		a := p.byCountry[country]
		if a == nil {
			p.byCountry[country] = oa
			continue
		}
		if oa.min < a.min {
			a.min = oa.min
		}
		a.samples += oa.samples
	}
	return nil
}

// Report finishes the analysis.
func (p *ProximityPass) Report() (*ProximityReport, error) {
	if len(p.byCountry) == 0 {
		return nil, errors.New("analysis: no delivered samples")
	}
	rep := &ProximityReport{Rows: make([]ProximityRow, 0, len(p.byCountry))}
	for iso, a := range p.byCountry {
		row := ProximityRow{
			Country:  iso,
			Name:     p.idx.CountryName(iso),
			MinRTTms: a.min,
			Band:     BandOf(a.min),
			Samples:  a.samples,
		}
		if c, ok := p.idx.Countries().Lookup(iso); ok {
			row.Continent = c.Continent
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].MinRTTms != rep.Rows[j].MinRTTms {
			return rep.Rows[i].MinRTTms < rep.Rows[j].MinRTTms
		}
		return rep.Rows[i].Country < rep.Rows[j].Country
	})
	return rep, nil
}

// MinRTTPass accumulates Figure 5: each probe's minimum observed RTT.
type MinRTTPass struct {
	idx  *Index
	mins map[int]float64
}

// NewMinRTTPass builds the pass.
func NewMinRTTPass(idx *Index) *MinRTTPass {
	return &MinRTTPass{idx: idx, mins: make(map[int]float64)}
}

// Observe implements RowPass.
func (p *MinRTTPass) Observe(s results.Sample) error {
	if s.Lost || !p.idx.Known(s.ProbeID) {
		return nil
	}
	if cur, ok := p.mins[s.ProbeID]; !ok || s.RTTms < cur {
		p.mins[s.ProbeID] = s.RTTms
	}
	return nil
}

// Merge implements Pass; min-of-mins is exact.
func (p *MinRTTPass) Merge(other Pass) error {
	o, ok := other.(*MinRTTPass)
	if !ok {
		return mergeTypeError("MinRTTPass", other)
	}
	for id, min := range o.mins {
		if cur, ok := p.mins[id]; !ok || min < cur {
			p.mins[id] = min
		}
	}
	return nil
}

// Report finishes the analysis, grouping per-probe minima by continent
// in ascending probe order so the report is deterministic.
func (p *MinRTTPass) Report() (*CDFReport, error) {
	if len(p.mins) == 0 {
		return nil, errors.New("analysis: no delivered samples")
	}
	rep := &CDFReport{byContinent: make(map[geo.Continent]*stats.Dist)}
	for _, probeID := range sortedProbeIDs(p.mins) {
		ct, ok := p.idx.Continent(probeID)
		if !ok {
			continue
		}
		d := rep.byContinent[ct]
		if d == nil {
			d = &stats.Dist{}
			rep.byContinent[ct] = d
		}
		if err := d.Add(p.mins[probeID]); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// FullDistPass accumulates Figure 6 in a single pass: it tracks each
// probe's nearest region while buffering every delivered (probe, region)
// RTT stream, then keeps only the nearest region's stream at report
// time. One scan instead of two (nearest region, then a re-scan), at the
// cost of holding the delivered samples in memory — about one float per delivered sample, which at the paper's
// 3.2M-sample scale is a few tens of MB.
type FullDistPass struct {
	idx     *Index
	nearest nearestTracker
	byProbe map[int]map[string]*stats.Dist
	// raw holds per-probe encoded distribution spans from a snapshot,
	// region-sorted, decoded lazily on first touch (see materializeDist).
	// A resumed scan touches only the delta's (probe, region) entries and
	// each probe's nearest region at report time; everything else is
	// spliced back into the next snapshot as raw bytes, so reload and
	// rewrite cost scales with the delta, not with history.
	raw map[int][]rawSpan
}

// rawSpan is one pending (region, encoded value) entry of a
// snapshot-seeded pass — a stats.Dist state for FullDistPass, a timedRTT
// stream for LastMilePass; span is nilled once the entry is decoded into
// byProbe.
type rawSpan struct {
	region string
	span   []byte
}

// NewFullDistPass builds the pass.
func NewFullDistPass(idx *Index) *FullDistPass {
	return &FullDistPass{
		idx:     idx,
		nearest: make(nearestTracker),
		byProbe: make(map[int]map[string]*stats.Dist),
	}
}

// liveRegions returns the probe's materialized region map, creating it
// if needed.
func (p *FullDistPass) liveRegions(id int) map[string]*stats.Dist {
	regions := p.byProbe[id]
	if regions == nil {
		regions = make(map[string]*stats.Dist)
		p.byProbe[id] = regions
	}
	return regions
}

// materializeDist returns the live distribution for (id, region),
// decoding a pending snapshot span on first touch. A nil result with a
// nil error means the entry does not exist.
func (p *FullDistPass) materializeDist(id int, region string) (*stats.Dist, error) {
	if live := p.byProbe[id]; live != nil {
		if d := live[region]; d != nil {
			return d, nil
		}
	}
	// Raw lists are decoded in ascending region order (the decoder
	// enforces it), so the pending span is found by binary search.
	list := p.raw[id]
	i := sort.Search(len(list), func(k int) bool { return list[k].region >= region })
	if i < len(list) && list[i].region == region && list[i].span != nil {
		r := &list[i]
		d, err := decodeDistSpan(r.span)
		if err != nil {
			return nil, err
		}
		r.span = nil
		p.liveRegions(id)[region] = d
		return d, nil
	}
	return nil, nil
}

// materializeAll decodes every pending span, leaving the pass fully
// live — used when the pass is the source side of a merge.
func (p *FullDistPass) materializeAll() error {
	for id, spans := range p.raw {
		live := p.liveRegions(id)
		for i := range spans {
			r := &spans[i]
			if r.span == nil {
				continue
			}
			d, err := decodeDistSpan(r.span)
			if err != nil {
				return err
			}
			r.span = nil
			live[r.region] = d
		}
	}
	p.raw = nil
	return nil
}

// Observe implements RowPass.
func (p *FullDistPass) Observe(s results.Sample) error {
	if s.Lost || !p.idx.Known(s.ProbeID) {
		return nil
	}
	p.nearest.observe(s)
	d, err := p.materializeDist(s.ProbeID, s.Region)
	if err != nil {
		return err
	}
	if d == nil {
		d = &stats.Dist{}
		p.liveRegions(s.ProbeID)[s.Region] = d
	}
	return d.Add(s.RTTms)
}

// Merge implements Pass. Buffered streams merge by replay (Dist.Merge),
// so each (probe, region) stream stays in file order for any sharding.
// Only the receiver entries the source actually touches are
// materialized; the rest stay pending raw spans.
func (p *FullDistPass) Merge(other Pass) error {
	o, ok := other.(*FullDistPass)
	if !ok {
		return mergeTypeError("FullDistPass", other)
	}
	p.nearest.merge(o.nearest)
	if err := o.materializeAll(); err != nil {
		return err
	}
	for id, oRegions := range o.byProbe {
		if p.byProbe[id] == nil && len(p.raw[id]) == 0 {
			p.byProbe[id] = oRegions
			continue
		}
		for region, od := range oRegions {
			d, err := p.materializeDist(id, region)
			if err != nil {
				return err
			}
			if d == nil {
				p.liveRegions(id)[region] = od
				continue
			}
			if err := d.Merge(od); err != nil {
				return err
			}
		}
	}
	return nil
}

// Report selects each probe's nearest-region stream and groups by
// continent, iterating probes in ascending order for determinism.
func (p *FullDistPass) Report() (*CDFReport, error) {
	if len(p.nearest) == 0 {
		return nil, errors.New("analysis: no delivered samples")
	}
	rep := &CDFReport{byContinent: make(map[geo.Continent]*stats.Dist)}
	for _, probeID := range sortedProbeIDs(p.nearest) {
		ct, ok := p.idx.Continent(probeID)
		if !ok {
			continue
		}
		// Only each probe's nearest-region stream is reported, so only
		// those entries are decoded from a snapshot-seeded pass.
		src, err := p.materializeDist(probeID, p.nearest[probeID].region)
		if err != nil {
			return nil, err
		}
		if src == nil {
			continue
		}
		d := rep.byContinent[ct]
		if d == nil {
			d = &stats.Dist{}
			rep.byContinent[ct] = d
		}
		if err := d.Merge(src); err != nil {
			return nil, err
		}
	}
	if len(rep.byContinent) == 0 {
		return nil, errors.New("analysis: no delivered samples")
	}
	return rep, nil
}

// timedRTT is one buffered nearest-region candidate sample: a
// timestamped RTT, shaped so whole streams feed stats.TimeSeries.AddBulk.
type timedRTT = stats.TimedSample

// LastMilePass accumulates Figure 7 and its significance test in a
// single pass: the nearest-region tracker runs over all known probes,
// while per-(probe, region) sample streams are buffered only for the
// tier-1/tier-2 wired- or wireless-tagged probes that enter the
// comparison. Report time picks each probe's nearest-region stream.
type LastMilePass struct {
	idx     *Index
	start   time.Time
	width   time.Duration
	nearest nearestTracker
	byProbe map[int]map[string][]timedRTT
	// raw holds per-probe encoded sample-stream spans from a snapshot,
	// region-sorted, decoded lazily exactly like FullDistPass.raw.
	raw map[int][]rawSpan
}

// NewLastMilePass builds the pass; the bin geometry is validated up
// front so a bad width fails before any scanning.
func NewLastMilePass(idx *Index, start time.Time, binWidth time.Duration) (*LastMilePass, error) {
	if _, err := stats.NewTimeSeries(start, binWidth); err != nil {
		return nil, err
	}
	p := newLastMileAccum(idx)
	p.start, p.width = start, binWidth
	return p, nil
}

// newLastMileAccum builds the accumulator without bin geometry — enough
// for Significance, which does not bin.
func newLastMileAccum(idx *Index) *LastMilePass {
	return &LastMilePass{
		idx:     idx,
		width:   time.Hour, // placeholder; Report validates real geometry
		nearest: make(nearestTracker),
		byProbe: make(map[int]map[string][]timedRTT),
	}
}

// Observe implements RowPass.
func (p *LastMilePass) Observe(s results.Sample) error {
	if s.Lost || !p.idx.Known(s.ProbeID) {
		return nil
	}
	p.nearest.observe(s)
	if tier, ok := p.idx.Tier(s.ProbeID); !ok || tier > geo.Tier2 {
		return nil
	}
	switch access, _ := p.idx.Access(s.ProbeID); access {
	case AccessWired, AccessWireless:
	default:
		return nil // untagged probes are excluded from Fig. 7
	}
	if err := p.materializeStream(s.ProbeID, s.Region); err != nil {
		return err
	}
	regions := p.liveStreams(s.ProbeID)
	regions[s.Region] = append(regions[s.Region], timedRTT{T: s.Time, V: s.RTTms})
	return nil
}

// liveStreams returns the probe's materialized stream map, creating it
// if needed.
func (p *LastMilePass) liveStreams(id int) map[string][]timedRTT {
	regions := p.byProbe[id]
	if regions == nil {
		regions = make(map[string][]timedRTT)
		p.byProbe[id] = regions
	}
	return regions
}

// materializeStream decodes the pending snapshot span for (id, region),
// if one exists, into byProbe, so appends and reads see the buffered
// history.
func (p *LastMilePass) materializeStream(id int, region string) error {
	list := p.raw[id]
	i := sort.Search(len(list), func(k int) bool { return list[k].region >= region })
	if i < len(list) && list[i].region == region && list[i].span != nil {
		r := &list[i]
		samples, err := decodeStreamSpan(r.span)
		if err != nil {
			return err
		}
		r.span = nil
		p.liveStreams(id)[region] = samples
	}
	return nil
}

// materializeAll decodes every pending span, leaving the pass fully
// live — used when the pass is the source side of a merge.
func (p *LastMilePass) materializeAll() error {
	for id, spans := range p.raw {
		live := p.liveStreams(id)
		for i := range spans {
			r := &spans[i]
			if r.span == nil {
				continue
			}
			samples, err := decodeStreamSpan(r.span)
			if err != nil {
				return err
			}
			r.span = nil
			live[r.region] = samples
		}
	}
	p.raw = nil
	return nil
}

// Merge implements Pass; buffered streams concatenate in shard order,
// reconstructing file order. Receiver streams the source does not touch
// stay pending raw spans.
func (p *LastMilePass) Merge(other Pass) error {
	o, ok := other.(*LastMilePass)
	if !ok {
		return mergeTypeError("LastMilePass", other)
	}
	p.nearest.merge(o.nearest)
	if err := o.materializeAll(); err != nil {
		return err
	}
	for id, oRegions := range o.byProbe {
		if p.byProbe[id] == nil && len(p.raw[id]) == 0 {
			p.byProbe[id] = oRegions
			continue
		}
		for region, os := range oRegions {
			if err := p.materializeStream(id, region); err != nil {
				return err
			}
			regions := p.liveStreams(id)
			regions[region] = append(regions[region], os...)
		}
	}
	return nil
}

// forEachKept walks the nearest-region streams of the qualifying
// probes in ascending probe order, one whole stream per call (the
// samples of a stream share their probe's access class, so callers can
// bulk-fold them). Only each probe's nearest-region stream is read, so
// only those streams are decoded from a snapshot-seeded pass.
func (p *LastMilePass) forEachKept(fn func(access AccessClass, samples []timedRTT) error) error {
	if len(p.nearest) == 0 {
		return errors.New("analysis: no delivered samples")
	}
	for _, probeID := range unionProbeIDs(p.byProbe, p.raw) {
		access, _ := p.idx.Access(probeID)
		region := p.nearest[probeID].region
		if err := p.materializeStream(probeID, region); err != nil {
			return err
		}
		if err := fn(access, p.byProbe[probeID][region]); err != nil {
			return err
		}
	}
	return nil
}

// Report finishes Figure 7.
func (p *LastMilePass) Report() (*LastMileReport, error) {
	wired, err := stats.NewTimeSeries(p.start, p.width)
	if err != nil {
		return nil, err
	}
	wireless, err := stats.NewTimeSeries(p.start, p.width)
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

// Significance runs the wired-vs-wireless Kolmogorov-Smirnov test over
// the same population Report uses.
func (p *LastMilePass) Significance() (stats.KSResult, error) {
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

// localHour maps a UTC timestamp to the probe's approximate local hour
// (15 degrees of longitude per hour).
func localHour(t time.Time, lon float64) int {
	return localHourHM(t.Hour(), t.Minute(), lon)
}

// localHourHM is the shared arithmetic of localHour and its raw-nanos
// twin localHourNanos; both must fold the same float expression so the
// batch and row paths bin identically.
func localHourHM(hour, minute int, lon float64) int {
	utc := float64(hour) + float64(minute)/60
	return int(math.Mod(utc+lon/15+48, 24)) % 24
}

// localHourNanos is localHour over a raw unix-nanosecond timestamp,
// skipping the time.Time round trip: bit-identical to
// localHour(time.Unix(0, n).UTC(), lon) for every int64 n.
func localHourNanos(n int64, lon float64) int {
	sec := n / 1e9
	if n%1e9 < 0 {
		sec-- // floor, as time.Unix normalizes negative nanos
	}
	sod := sec % 86400
	if sod < 0 {
		sod += 86400 // Euclidean: Hour() works on absolute (unsigned) time
	}
	return localHourHM(int(sod/3600), int(sod%3600/60), lon)
}

// providerOf extracts the operator prefix of a "provider/id" region
// address.
func providerOf(region string) (string, bool) {
	provider, _, ok := strings.Cut(region, "/")
	return provider, ok
}

// DiurnalPass accumulates the local-hour congestion profile.
type DiurnalPass struct {
	idx  *Index
	bins [24]stats.Dist
}

// NewDiurnalPass builds the pass.
func NewDiurnalPass(idx *Index) *DiurnalPass {
	return &DiurnalPass{idx: idx}
}

// Observe implements RowPass.
func (p *DiurnalPass) Observe(s results.Sample) error {
	if s.Lost {
		return nil
	}
	lon, ok := p.idx.Longitude(s.ProbeID)
	if !ok {
		return nil
	}
	return p.bins[localHour(s.Time, lon)].Add(s.RTTms)
}

// Merge implements Pass; per-bin replay keeps each hour's stream in
// file order.
func (p *DiurnalPass) Merge(other Pass) error {
	o, ok := other.(*DiurnalPass)
	if !ok {
		return mergeTypeError("DiurnalPass", other)
	}
	for h := range p.bins {
		if err := p.bins[h].Merge(&o.bins[h]); err != nil {
			return err
		}
	}
	return nil
}

// Report finishes the profile.
func (p *DiurnalPass) Report() (*DiurnalReport, error) {
	rep := &DiurnalReport{}
	nonEmpty := 0
	for h := range p.bins {
		rep.Counts[h] = p.bins[h].N()
		if p.bins[h].N() == 0 {
			continue
		}
		med, err := p.bins[h].Median()
		if err != nil {
			return nil, err
		}
		rep.Medians[h] = med
		nonEmpty++
	}
	if nonEmpty == 0 {
		return nil, errors.New("core: no delivered samples")
	}
	return rep, nil
}

// ProviderPass accumulates the per-provider latency comparison.
type ProviderPass struct {
	idx        *Index
	byProvider map[string]*providerAcc
	// Per-block scratch for ObserveBlock, reused across blocks: the
	// provider prefix of each dictionary code and the lazily resolved
	// accumulator per code. Never serialized.
	provs  []string
	provOK []bool
	accs   []*providerAcc
}

type providerAcc struct {
	dist *stats.Dist
	lost int
}

// NewProviderPass builds the pass.
func NewProviderPass(idx *Index) *ProviderPass {
	return &ProviderPass{idx: idx, byProvider: make(map[string]*providerAcc)}
}

// Observe implements RowPass.
func (p *ProviderPass) Observe(s results.Sample) error {
	if !p.idx.Known(s.ProbeID) {
		return nil
	}
	provider, ok := providerOf(s.Region)
	if !ok {
		return nil
	}
	a := p.byProvider[provider]
	if a == nil {
		a = &providerAcc{dist: &stats.Dist{}}
		p.byProvider[provider] = a
	}
	if s.Lost {
		a.lost++
		return nil
	}
	return a.dist.Add(s.RTTms)
}

// Merge implements Pass. Per-provider streams merge by replay, so the
// mean/stddev folds in the summary match a sequential run bitwise.
func (p *ProviderPass) Merge(other Pass) error {
	o, ok := other.(*ProviderPass)
	if !ok {
		return mergeTypeError("ProviderPass", other)
	}
	for provider, oa := range o.byProvider {
		a := p.byProvider[provider]
		if a == nil {
			p.byProvider[provider] = oa
			continue
		}
		if err := a.dist.Merge(oa.dist); err != nil {
			return err
		}
		a.lost += oa.lost
	}
	return nil
}

// Report finishes the comparison.
func (p *ProviderPass) Report() (*ProviderReport, error) {
	if len(p.byProvider) == 0 {
		return nil, errors.New("core: no samples")
	}
	rep := &ProviderReport{}
	for provider, a := range p.byProvider {
		if a.dist.N() == 0 {
			continue
		}
		sum, err := a.dist.Summarize()
		if err != nil {
			return nil, err
		}
		total := a.dist.N() + a.lost
		rep.Rows = append(rep.Rows, ProviderRow{
			Provider: provider,
			Summary:  sum,
			Lost:     a.lost,
			LossRate: float64(a.lost) / float64(total),
		})
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Summary.Median != rep.Rows[j].Summary.Median {
			return rep.Rows[i].Summary.Median < rep.Rows[j].Summary.Median
		}
		return rep.Rows[i].Provider < rep.Rows[j].Provider
	})
	return rep, nil
}
