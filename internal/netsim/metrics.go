package netsim

import "repro/internal/obs"

// Metrics count the network's packet events in an obs registry, so a
// live platform can expose link/packet telemetry alongside its own.
type Metrics struct {
	Sent        *obs.Counter
	Delivered   *obs.Counter
	Dropped     *obs.Counter
	Unroutable  *obs.Counter
	LinkerError *obs.Counter
}

// NewMetrics registers the network instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Sent:        reg.Counter("netsim_packets_sent_total", "Packets submitted to the virtual network."),
		Delivered:   reg.Counter("netsim_packets_delivered_total", "Packets handed to a receive handler."),
		Dropped:     reg.Counter("netsim_packets_dropped_total", "Packets lost in transit or cancelled at close."),
		Unroutable:  reg.Counter("netsim_packets_unroutable_total", "Packets whose destination was unknown at delivery."),
		LinkerError: reg.Counter("netsim_linker_errors_total", "Packets the Linker refused."),
	}
}

// WithMetrics attaches telemetry instruments to a Network. A nil Metrics
// is ignored.
func WithMetrics(m *Metrics) Option {
	return func(n *Network) { n.metrics = m }
}
