// Package route synthesizes hop-level forwarding paths from the latency
// model and implements a traceroute-style prober over them. The paper's
// methodology family leans on tcptraceroute [41] to locate delay along the
// path; this package reproduces that tooling: every probe-to-region path
// expands into access, transit, and backbone hops whose cumulative delays
// are consistent with the end-to-end RTT the campaign measured.
package route

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netem"
)

// HopKind classifies a hop by network segment.
type HopKind uint8

// Hop kinds, in on-path order.
const (
	HopAccess   HopKind = iota + 1 // probe-side access/aggregation
	HopTransit                     // national/regional transit and peering
	HopBackbone                    // long-haul provider backbone
	HopEdge                        // datacenter edge router
	HopTarget                      // the measured VM itself
)

// String names the hop kind.
func (k HopKind) String() string {
	if int(k) < len(hopKindNames) {
		return hopKindNames[k]
	}
	return "unknown"
}

var hopKindNames = [...]string{"unknown", "access", "transit", "backbone", "dc-edge", "target"}

// Hop is one traceroute line: a router with its cumulative round-trip
// delay from the probe.
type Hop struct {
	TTL          int     `json:"ttl"`
	Name         string  `json:"name"`
	Kind         HopKind `json:"kind"`
	CumulativeMs float64 `json:"cumulative_ms"`
}

// Trace is a full hop list for one path at one point in time.
type Trace struct {
	Src, Dst string
	Hops     []Hop
	Lost     bool // the probe burst was lost end to end
}

// Expand synthesizes the hop-level route for a path sampled at time t.
// The hop structure is deterministic per path; the delays move with the
// sampled components:
//
//   - the access segment carries the last-mile (and bufferbloat) share,
//   - transit hops (1 per tier step) carry the transit penalty,
//   - backbone hops (1 per ~1500 km) divide the propagation delay,
//   - the datacenter edge and target terminate the path.
func Expand(p *netem.Path, src netem.Site, dstID string, t time.Time) (*Trace, error) {
	if p == nil {
		return nil, errors.New("route: nil path")
	}
	if dstID == "" {
		return nil, errors.New("route: empty destination")
	}
	b := p.Sample(t)
	tr := &Trace{Src: src.ID, Dst: dstID}
	if b.Lost {
		tr.Lost = true
		return tr, nil
	}

	cum := 0.0
	ttl := 0
	add := func(name string, kind HopKind, deltaMs float64) {
		ttl++
		cum += deltaMs
		tr.Hops = append(tr.Hops, Hop{
			TTL:          ttl,
			Name:         name,
			Kind:         kind,
			CumulativeMs: cum,
		})
	}

	// Access segment: gateway plus aggregation router split the last-mile
	// (+ bufferbloat) delay.
	accessMs := b.LastMileMs + b.BloatMs
	if src.Access == netem.AccessCore {
		add(fmt.Sprintf("core-gw.%s", src.ID), HopAccess, accessMs)
	} else {
		add(fmt.Sprintf("gw.%s", src.ID), HopAccess, accessMs*0.7)
		add(fmt.Sprintf("agg1.%s.isp", src.ID), HopAccess, accessMs*0.3)
	}

	// Transit hops: one per tier step — under-served countries traverse
	// more (and slower) intermediate networks (§4.3).
	nTransit := int(src.Tier)
	for i := 0; i < nTransit; i++ {
		add(fmt.Sprintf("transit%d.%s.net", i+1, src.ID), HopTransit, b.TransitMs/float64(nTransit))
	}

	// Backbone hops: roughly one router per 1500 km of great-circle
	// distance, sharing the propagation delay.
	nBackbone := 1 + int(p.DistanceKm()/1500)
	for i := 0; i < nBackbone; i++ {
		add(fmt.Sprintf("bb%d.%s", i+1, dstID), HopBackbone, b.PropagationMs/float64(nBackbone))
	}

	// Datacenter edge and the target VM (endpoint processing).
	add(fmt.Sprintf("edge.%s", dstID), HopEdge, 0)
	add(dstID, HopTarget, b.ProcessingMs)
	return tr, nil
}

// SegmentMs sums the per-hop deltas of one kind.
func (tr *Trace) SegmentMs(kind HopKind) float64 {
	total := 0.0
	prev := 0.0
	for _, h := range tr.Hops {
		delta := h.CumulativeMs - prev
		prev = h.CumulativeMs
		if h.Kind == kind {
			total += delta
		}
	}
	return total
}

// Format renders the trace like a traceroute transcript.
func (tr *Trace) Format() []string {
	if tr.Lost {
		return []string{fmt.Sprintf("traceroute to %s: * * * (lost)", tr.Dst)}
	}
	lines := []string{fmt.Sprintf("traceroute to %s from %s", tr.Dst, tr.Src)}
	for _, h := range tr.Hops {
		lines = append(lines, fmt.Sprintf("%2d  %-28s %9.2f ms  (%s)", h.TTL, h.Name, h.CumulativeMs, h.Kind))
	}
	return lines
}
