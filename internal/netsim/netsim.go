// Package netsim is a virtual packet network. Endpoints attach under
// string addresses; a Linker decides, per packet, the one-way delay and
// whether the packet is dropped. The measurement platform wires the netem
// latency model in as the Linker, which turns the simulator into the
// "Internet" between probes and datacenters.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Linker decides the fate of a packet from src to dst sent at time at,
// carrying size bytes of payload (so the delay can include serialization
// time on the sender's uplink). Implementations must be safe for
// concurrent use.
type Linker interface {
	Link(src, dst string, size int, at time.Time) (delay time.Duration, lost bool, err error)
}

// LinkerFunc adapts a function to the Linker interface.
type LinkerFunc func(src, dst string, size int, at time.Time) (time.Duration, bool, error)

// Link implements Linker.
func (f LinkerFunc) Link(src, dst string, size int, at time.Time) (time.Duration, bool, error) {
	return f(src, dst, size, at)
}

// Handler consumes a delivered payload. src is the sender's address.
type Handler func(src string, payload []byte)

// Network routes packets between attached endpoints with Linker-provided
// delays. The zero value is not usable; call NewNetwork.
type Network struct {
	linker Linker

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	metrics   *Metrics
	closed    bool
	inflight  sync.WaitGroup
	timers    map[*time.Timer]struct{}
	timeScale float64
}

// Option configures a Network.
type Option func(*Network)

// WithTimeScale compresses simulated delays by the given factor (0.01 makes
// a 100 ms path deliver in 1 ms of wall clock). Measured RTTs are still
// reported at full scale by the pinger because it timestamps virtual time.
func WithTimeScale(scale float64) Option {
	return func(n *Network) {
		if scale > 0 {
			n.timeScale = scale
		}
	}
}

// NewNetwork creates a network over the given Linker.
func NewNetwork(linker Linker, opts ...Option) (*Network, error) {
	if linker == nil {
		return nil, errors.New("netsim: nil linker")
	}
	n := &Network{
		linker:    linker,
		endpoints: make(map[string]*Endpoint),
		timers:    make(map[*time.Timer]struct{}),
		timeScale: 1,
	}
	for _, o := range opts {
		o(n)
	}
	if n.metrics == nil {
		n.metrics = &Metrics{} // nil obs fields: recording is a no-op
	}
	return n, nil
}

// Attach registers an endpoint under addr. The handler may be set later
// with SetHandler; packets arriving before that are counted unroutable.
func (n *Network) Attach(addr string) (*Endpoint, error) {
	if addr == "" {
		return nil, errors.New("netsim: empty address")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("netsim: network closed")
	}
	if _, dup := n.endpoints[addr]; dup {
		return nil, fmt.Errorf("netsim: address %q already attached", addr)
	}
	ep := &Endpoint{net: n, addr: addr}
	n.endpoints[addr] = ep
	return ep, nil
}

// Close stops accepting sends, cancels packets still in transit (they
// count as dropped), and waits for deliveries already firing to finish.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	timers := make([]*time.Timer, 0, len(n.timers))
	for t := range n.timers {
		timers = append(timers, t)
	}
	n.mu.Unlock()
	for _, t := range timers {
		if t.Stop() {
			// The delivery callback will never run; release its slot.
			n.mu.Lock()
			if _, ok := n.timers[t]; ok {
				delete(n.timers, t)
				n.metrics.Dropped.Inc()
				n.inflight.Done()
			}
			n.mu.Unlock()
		}
	}
	n.inflight.Wait()
}

func (n *Network) send(src, dst string, payload []byte) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("netsim: network closed")
	}
	n.mu.Unlock()
	n.metrics.Sent.Inc()

	delay, lost, err := n.linker.Link(src, dst, len(payload), time.Now())
	if err != nil {
		n.metrics.LinkerError.Inc()
		return fmt.Errorf("netsim: %s -> %s: %w", src, dst, err)
	}
	if lost {
		n.metrics.Dropped.Inc()
		return nil // loss is silent, like the real network
	}
	data := append([]byte(nil), payload...)
	// Hold the lock across timer creation and registration: the callback
	// also takes the lock first, so it cannot observe an unregistered
	// timer even at zero delay.
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		n.metrics.Dropped.Inc()
		return nil
	}
	n.inflight.Add(1)
	var timer *time.Timer
	timer = time.AfterFunc(time.Duration(float64(delay)*n.timeScale), func() {
		n.mu.Lock()
		if _, ok := n.timers[timer]; !ok {
			// Close already reclaimed this packet.
			n.mu.Unlock()
			return
		}
		delete(n.timers, timer)
		n.mu.Unlock()
		defer n.inflight.Done()
		n.deliver(src, dst, data)
	})
	n.timers[timer] = struct{}{}
	return nil
}

func (n *Network) deliver(src, dst string, payload []byte) {
	n.mu.Lock()
	ep := n.endpoints[dst]
	var h Handler
	if ep != nil {
		h = ep.handler
	}
	if ep == nil || h == nil {
		n.mu.Unlock()
		n.metrics.Unroutable.Inc()
		return
	}
	n.mu.Unlock()
	n.metrics.Delivered.Inc()
	h(src, payload)
}

// Endpoint is one attached network participant. The handler field is
// guarded by the owning network's mutex.
type Endpoint struct {
	net     *Network
	addr    string
	handler Handler
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() string { return e.addr }

// SetHandler installs the receive callback. It may be called at most once
// before traffic is expected; replacing a handler mid-flight is allowed.
// The parameter is the unnamed signature of Handler so that Endpoint
// satisfies transport interfaces declared in other packages.
func (e *Endpoint) SetHandler(h func(src string, payload []byte)) {
	e.net.mu.Lock()
	e.handler = h
	e.net.mu.Unlock()
}

// Send submits a packet toward dst. A nil error does not imply delivery:
// the packet may be lost in transit, exactly like UDP.
func (e *Endpoint) Send(dst string, payload []byte) error {
	if dst == "" {
		return errors.New("netsim: empty destination")
	}
	return e.net.send(e.addr, dst, payload)
}
