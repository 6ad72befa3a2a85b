// Package atlas is the measurement platform substituting for RIPE Atlas: a
// probe registry, credit accounting, a measurement scheduler, and an
// HTTP+JSON API with a client SDK. It drives pings either "live" over the
// virtual packet network (exercising the full echo/ping stack) or through
// the fast campaign synthesizer that generates the multi-month dataset the
// paper's analysis consumes.
package atlas

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/probe"
)

// Platform binds the probe population, the cloud catalog, and the latency
// model together. It keeps no paths: a campaign caches the ones it
// samples in a pathTable of its own, and Path derives one per call.
type Platform struct {
	Population *probe.Population
	Catalog    *cloud.Catalog
	Model      *netem.Model

	// Metrics, when set before a campaign runs, receives per-round
	// progress and per-continent sample tallies from RunCampaign.
	Metrics *CampaignMetrics

	// targets is each continent's target list, indexed by the continent
	// (ContinentUnknown's entry stays nil): the engine reads it once per
	// probe per round.
	targets [geo.SouthAmerica + 1][]*cloud.Region
}

// NewPlatform wires the pieces together.
func NewPlatform(pop *probe.Population, cat *cloud.Catalog, model *netem.Model) (*Platform, error) {
	if pop == nil || cat == nil || model == nil {
		return nil, fmt.Errorf("atlas: nil component")
	}
	if pop.Len() == 0 {
		return nil, fmt.Errorf("atlas: empty probe population")
	}
	if cat.Len() == 0 {
		return nil, fmt.Errorf("atlas: empty region catalog")
	}
	p := &Platform{
		Population: pop,
		Catalog:    cat,
		Model:      model,
	}
	for _, ct := range geo.Continents() {
		p.targets[ct] = cat.TargetsFor(ct)
	}
	return p, nil
}

// Targets returns the regions a probe measures to under the paper's
// same-continent methodology.
func (p *Platform) Targets(pr *probe.Probe) []*cloud.Region {
	if int(pr.Continent) >= len(p.targets) {
		return nil
	}
	return p.targets[pr.Continent]
}

// Path derives the network path between a probe and a region. Every
// call derives afresh (about a microsecond): the model is immutable, so
// calls for one pair return equal paths, and a campaign's pathTable
// holds the one it samples.
func (p *Platform) Path(pr *probe.Probe, r *cloud.Region) (*netem.Path, error) {
	return p.Model.Path(pr.Site(), netem.Target{
		ID:        r.Addr(),
		Location:  r.Location,
		Continent: p.Catalog.Continent(r),
		Private:   r.Provider.Backbone == cloud.BackbonePrivate,
	})
}

// pathTable is one campaign's path cache: a slot per (probe ID, catalog
// region) pair, row-major by probe ID. ShardGen allocates it and its
// shard closures are its only holders, so it and its paths become
// garbage when the campaign's engine returns. Every shard worker reads
// it on every sample, so a lookup is one atomic load — no key to box, no
// string to hash.
type pathTable struct {
	p     *Platform
	slots []atomic.Pointer[netem.Path]
}

// newPathTable allocates an empty table over the platform's population
// and catalog. It is a variable so that a test can hold a weak pointer
// to each table and see it die with its campaign.
var newPathTable = func(p *Platform) *pathTable {
	return &pathTable{p: p, slots: make([]atomic.Pointer[netem.Path], (p.Population.All()[p.Population.Len()-1].ID+1)*p.Catalog.Len())}
}

// pathJob is one pair of a resolvePaths batch: its endpoints, and its
// path once resolved.
type pathJob struct {
	pr   *probe.Probe
	r    *cloud.Region
	path *netem.Path
}

// resolvePaths sets each job's path, and returns how many leading jobs
// it resolved with the error of the first that failed. It works in
// passes over the batch: every job's cell load, then one touch of each
// cached path. A pass's loads do not depend on each other, so the cache
// misses of different jobs are in flight together instead of one after
// another. The pairs still missing are then derived in job order
// through Platform.Path; racing derivations of one pair collapse to the
// instance the slot's CAS kept.
func (t *pathTable) resolvePaths(jobs []pathJob) (int, error) {
	for i := range jobs {
		j := &jobs[i]
		j.path = nil
		if slot := t.slot(j.pr, j.r); slot != nil {
			j.path = slot.Load()
		}
	}
	for _, j := range jobs {
		if j.path != nil {
			j.path.Touch()
		}
	}
	for i := range jobs {
		j := &jobs[i]
		if j.path != nil {
			continue
		}
		path, err := t.p.Path(j.pr, j.r)
		if err != nil {
			return i, err
		}
		if slot := t.slot(j.pr, j.r); slot != nil && !slot.CompareAndSwap(nil, path) {
			path = slot.Load()
		}
		j.path = path
	}
	return len(jobs), nil
}

// slot returns the cell of a pair. A pair the table has no cell for — a
// probe ID past the population's, a region that is not the catalog's —
// gets nil and is derived on every call.
func (t *pathTable) slot(pr *probe.Probe, r *cloud.Region) *atomic.Pointer[netem.Path] {
	pos, ok := t.p.Catalog.Position(r)
	if n := t.p.Catalog.Len(); ok && uint(pr.ID) < uint(len(t.slots)/n) {
		return &t.slots[pr.ID*n+pos]
	}
	return nil
}

// Link implements netsim.Linker over the platform's paths: it resolves
// probe/region pairs in either direction, samples the RTT at the send time,
// and charges each leg half the RTT. Loss applies on the forward
// (probe-to-region) leg only so the end-to-end loss rate matches the model.
// Payload-carrying packets pay serialization time on the probe's access
// uplink in addition to the propagation delay. Only the probe-side
// (forward) leg is capacity-constrained; datacenter downlinks are
// effectively unconstrained at ping-scale payloads.
func (p *Platform) Link(src, dst string, size int, at time.Time) (time.Duration, bool, error) {
	pr, r, forward, err := p.resolve(src, dst)
	if err != nil {
		return 0, false, fmt.Errorf("atlas: no link between %q and %q", src, dst)
	}
	path, err := p.Path(pr, r)
	if err != nil {
		return 0, false, err
	}
	ms, lost := path.RTT(at)
	delayMs := ms / 2
	if forward {
		delayMs += path.SerializationMs(size)
	} else {
		lost = false
	}
	return time.Duration(delayMs * float64(time.Millisecond)), lost, nil
}

// resolve interprets (src, dst) as probe->region or region->probe.
func (p *Platform) resolve(src, dst string) (*probe.Probe, *cloud.Region, bool, error) {
	if pr, ok := p.lookupProbe(src); ok {
		if r, ok := p.lookupRegion(dst); ok {
			return pr, r, true, nil
		}
	}
	if r, ok := p.lookupRegion(src); ok {
		if pr, ok := p.lookupProbe(dst); ok {
			return pr, r, false, nil
		}
	}
	return nil, nil, false, fmt.Errorf("atlas: unknown pair")
}

// lookupProbe resolves "probe/<id>" addresses. A service suffix
// ("probe/7/tcp-client") shares the probe's network location.
func (p *Platform) lookupProbe(addr string) (*probe.Probe, bool) {
	var id int
	if _, err := fmt.Sscanf(addr, "probe/%d", &id); err != nil {
		return nil, false
	}
	return p.Population.Lookup(id)
}

// lookupRegion resolves "Provider/region" addresses. A service suffix
// ("Amazon/eu-west-1/tcp") shares the region's network location.
func (p *Platform) lookupRegion(addr string) (*cloud.Region, bool) {
	if r, ok := p.Catalog.Lookup(addr); ok {
		return r, true
	}
	if i := strings.LastIndex(addr, "/"); i > 0 {
		if r, ok := p.Catalog.Lookup(addr[:i]); ok {
			return r, true
		}
	}
	return nil, false
}
