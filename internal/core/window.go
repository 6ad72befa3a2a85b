package core

import (
	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/stats"
)

// WindowCDFPass accumulates the per-continent distribution of every
// delivered RTT the scan admits. It carries no window logic of its own:
// the caller expresses the window as a scan predicate, so zone-map
// pushdown skips blocks wholly outside it and this pass only ever sees
// matching rows — the serving layer's /cdf endpoint runs exactly this
// pass under a Since/Until predicate.
type WindowCDFPass struct {
	idx         *Index
	byContinent map[geo.Continent]*stats.Dist
}

// NewWindowCDFPass builds the pass.
func NewWindowCDFPass(idx *Index) *WindowCDFPass {
	return &WindowCDFPass{idx: idx, byContinent: make(map[geo.Continent]*stats.Dist)}
}

// Merge implements Pass. Continent distributions back rank-based
// queries only, so append-order differences between workers cannot
// change a quantile or CDF value.
func (p *WindowCDFPass) Merge(other Pass) error {
	o, ok := other.(*WindowCDFPass)
	if !ok {
		return mergeTypeError("WindowCDFPass", other)
	}
	for ct, od := range o.byContinent {
		d := p.byContinent[ct]
		if d == nil {
			d = &stats.Dist{}
			p.byContinent[ct] = d
		}
		if err := d.Merge(od); err != nil {
			return err
		}
	}
	return nil
}

// Columns implements scan.BlockPass: probe, RTT and loss are always
// decoded, so no optional columns are needed.
func (p *WindowCDFPass) Columns() colf.ColumnSet { return 0 }

// ObserveBlock implements scan.BlockPass. The continent and its
// destination distribution resolve once per probe run instead of once
// per row.
func (p *WindowCDFPass) ObserveBlock(blk *colf.Block) error {
	lastProbe := 0
	var d *stats.Dist
	for i, probe := range blk.Probe {
		if blk.Lost[i] {
			continue
		}
		if probe != lastProbe {
			lastProbe = probe
			d = nil
			if p.idx.Known(probe) {
				if ct, ok := p.idx.Continent(probe); ok {
					if d = p.byContinent[ct]; d == nil {
						d = &stats.Dist{}
						p.byContinent[ct] = d
					}
				}
			}
		}
		if d == nil {
			continue
		}
		if err := d.Add(blk.RTT[i]); err != nil {
			return err
		}
	}
	return nil
}

// Report wraps the accumulated distributions. An empty window is a
// legitimate result (no matching samples), not an error — the report
// simply lists no continents.
func (p *WindowCDFPass) Report() (*CDFReport, error) {
	return &CDFReport{byContinent: p.byContinent}, nil
}
