package core

import (
	"repro/internal/colf"
	"repro/internal/stats"
)

// Batch kernels: every suite pass folds whole column arrays, never a
// results.Sample per row. ObserveBlock is the only fold production code
// reaches, and the scanner is the only caller: a store's blocks and an
// in-memory campaign's (results.Memory holds the same colf image) come
// through it alike. Each kernel leaves exactly the state a
// sample-by-sample fold of the same rows would — same accumulators,
// same insertion order, same lazy creation — which the row oracle in
// oracle_test.go pins byte for byte.
//
// The kernels assume every row already passes results.Sample.Validate,
// which the scanner proves from the CRC-verified footer zone before
// dispatching here (see scan.blockRowsValid). Probe IDs are therefore
// > 0, making 0 a safe "no previous probe" sentinel for the run caches
// below: blocks group consecutive rows by probe, so per-probe index
// lookups (country, tier, access, ...) resolve once per run instead
// of once per row.

// Columns implements scan.BlockPass; probe, RTT, loss, and region
// codes always decode.
func (p *ProximityPass) Columns() colf.ColumnSet { return 0 }

// ObserveBlock implements scan.BlockPass.
func (p *ProximityPass) ObserveBlock(blk *colf.Block) error {
	lastProbe := 0
	known := false
	var country string
	var a *proximityAcc
	for i, probe := range blk.Probe {
		if blk.Lost[i] {
			continue
		}
		if probe != lastProbe {
			lastProbe = probe
			country, known = p.idx.Country(probe)
			a = nil
		}
		if !known {
			continue
		}
		if a == nil {
			a = p.byCountry[country]
		}
		rtt := blk.RTT[i]
		if a == nil {
			a = &proximityAcc{min: rtt}
			p.byCountry[country] = a
		} else if rtt < a.min {
			a.min = rtt
		}
		a.samples++
	}
	return nil
}

// Columns implements scan.BlockPass.
func (p *MinRTTPass) Columns() colf.ColumnSet { return 0 }

// ObserveBlock implements scan.BlockPass. The per-probe minimum runs
// locally over each probe's row run and is written back once, turning
// a map update per row into one per run.
func (p *MinRTTPass) ObserveBlock(blk *colf.Block) error {
	lastProbe := 0
	known, have, dirty := false, false, false
	var cur float64
	for i, probe := range blk.Probe {
		if blk.Lost[i] {
			continue
		}
		if probe != lastProbe {
			if dirty {
				p.mins[lastProbe] = cur
			}
			lastProbe = probe
			known = p.idx.Known(probe)
			dirty = false
			if known {
				cur, have = p.mins[probe]
			}
		}
		if !known {
			continue
		}
		if rtt := blk.RTT[i]; !have || rtt < cur {
			cur, have, dirty = rtt, true, true
		}
	}
	if dirty {
		p.mins[lastProbe] = cur
	}
	return nil
}

// Columns implements scan.BlockPass. Providers resolve from the block
// dictionary and per-row codes.
func (p *ProviderPass) Columns() colf.ColumnSet { return colf.ColRegionIDs }

// ObserveBlock implements scan.BlockPass. The provider prefix is
// carved off each dictionary entry once per block; accumulators
// resolve lazily per code, only when a known probe's row actually
// lands in one.
func (p *ProviderPass) ObserveBlock(blk *colf.Block) error {
	p.provs, p.provOK, p.accs = p.provs[:0], p.provOK[:0], p.accs[:0]
	for _, region := range blk.Dict {
		prov, ok := providerOf(region)
		p.provs = append(p.provs, prov)
		p.provOK = append(p.provOK, ok)
		p.accs = append(p.accs, nil)
	}
	lastProbe := 0
	known := false
	for i, probe := range blk.Probe {
		if probe != lastProbe {
			lastProbe = probe
			known = p.idx.Known(probe)
		}
		if !known {
			continue
		}
		code := blk.RegionID[i]
		a := p.accs[code]
		if a == nil {
			if !p.provOK[code] {
				continue
			}
			a = p.byProvider[p.provs[code]]
			if a == nil {
				a = &providerAcc{dist: &stats.Dist{}}
				p.byProvider[p.provs[code]] = a
			}
			p.accs[code] = a
		}
		if blk.Lost[i] {
			a.lost++
			continue
		}
		if err := a.dist.Add(blk.RTT[i]); err != nil {
			return err
		}
	}
	return nil
}
