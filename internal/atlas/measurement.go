package atlas

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/ping"
	"repro/internal/results"
)

// MeasurementSpec is a user request for a live ping measurement, shaped
// like the RIPE Atlas one-off/interval measurement API.
type MeasurementSpec struct {
	Target   string        `json:"target"`    // region address, e.g. "Amazon/eu-north-1"
	ProbeIDs []int         `json:"probe_ids"` // participating probes
	Count    int           `json:"count"`     // pings per probe
	Interval time.Duration `json:"interval"`  // spacing between pings
	Timeout  time.Duration `json:"timeout"`   // per-ping deadline
}

// Validate checks the spec against the platform.
func (s MeasurementSpec) Validate(p *Platform) error {
	if _, ok := p.Catalog.Lookup(s.Target); !ok {
		return fmt.Errorf("atlas: unknown target %q", s.Target)
	}
	if len(s.ProbeIDs) == 0 {
		return errors.New("atlas: no probes selected")
	}
	for _, id := range s.ProbeIDs {
		pr, ok := p.Population.Lookup(id)
		if !ok {
			return fmt.Errorf("atlas: unknown probe %d", id)
		}
		if pr.Privileged() {
			return fmt.Errorf("atlas: probe %d is in a privileged location", id)
		}
	}
	if s.Count <= 0 {
		return fmt.Errorf("atlas: non-positive count %d", s.Count)
	}
	if s.Count > 100 {
		return fmt.Errorf("atlas: count %d exceeds per-measurement cap 100", s.Count)
	}
	if s.Interval < 0 {
		return fmt.Errorf("atlas: negative interval")
	}
	if s.Timeout <= 0 {
		return fmt.Errorf("atlas: non-positive timeout")
	}
	return nil
}

// Cost returns the credit price of the measurement.
func (s MeasurementSpec) Cost() int64 {
	return int64(s.Count) * int64(len(s.ProbeIDs)) * CostPerPing
}

// Status of a measurement.
type Status string

// Measurement lifecycle states.
const (
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
	StatusStopped Status = "stopped" // cancelled by the user; unused pings refunded
)

// Measurement is a live measurement and its collected results.
type Measurement struct {
	ID      int              `json:"id"`
	Account string           `json:"account"`
	Spec    MeasurementSpec  `json:"spec"`
	Status  Status           `json:"status"`
	Error   string           `json:"error,omitempty"`
	Results []results.Sample `json:"results,omitempty"`

	cancel context.CancelFunc `json:"-"`
	done   chan struct{}      // closed once run has set the final status
}

// LiveService runs measurements over the virtual packet network, so a
// "ping" traverses the full echo/pinger/responder stack with netem delays.
type LiveService struct {
	platform  *Platform
	ledger    *Ledger
	net       *netsim.Network
	timeScale float64
	metrics   *Metrics

	mu      sync.Mutex
	nextID  int
	byID    map[int]*Measurement
	pingers map[int]*ping.Pinger
	wg      sync.WaitGroup
	closed  bool
}

// LiveOption configures a LiveService.
type LiveOption func(*LiveService)

// WithLiveMetrics instruments the service: measurement lifecycle and
// result counters on the service itself, packet counters on the virtual
// network, and echo/RTT instruments on every probe pinger.
func WithLiveMetrics(m *Metrics) LiveOption {
	return func(s *LiveService) { s.metrics = m }
}

// NewLiveService builds the virtual network, attaches a responder in every
// cloud region, and is then ready to accept measurements. timeScale
// compresses simulated delays (0.01 runs a 100 ms ping in 1 ms wall time);
// reported RTTs are scaled back to full scale.
func NewLiveService(p *Platform, ledger *Ledger, timeScale float64, opts ...LiveOption) (*LiveService, error) {
	if p == nil || ledger == nil {
		return nil, errors.New("atlas: nil component")
	}
	if timeScale <= 0 || timeScale > 1 {
		return nil, fmt.Errorf("atlas: time scale %v out of (0,1]", timeScale)
	}
	s := &LiveService{
		platform:  p,
		ledger:    ledger,
		timeScale: timeScale,
		byID:      make(map[int]*Measurement),
		pingers:   make(map[int]*ping.Pinger),
	}
	for _, o := range opts {
		o(s)
	}
	netOpts := []netsim.Option{netsim.WithTimeScale(timeScale)}
	if s.metrics != nil && s.metrics.Net != nil {
		netOpts = append(netOpts, netsim.WithMetrics(s.metrics.Net))
	}
	n, err := netsim.NewNetwork(p, netOpts...)
	if err != nil {
		return nil, err
	}
	s.net = n
	for _, r := range p.Catalog.All() {
		ep, err := n.Attach(r.Addr())
		if err != nil {
			n.Close()
			return nil, err
		}
		if _, err := ping.NewResponder(ep); err != nil {
			n.Close()
			return nil, err
		}
	}
	return s, nil
}

// pinger returns (attaching lazily) the shared pinger for a probe.
func (s *LiveService) pinger(probeID int) (*ping.Pinger, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pingers[probeID]; ok {
		return p, nil
	}
	ep, err := s.net.Attach(fmt.Sprintf("probe/%d", probeID))
	if err != nil {
		return nil, err
	}
	pingOpts := []ping.PingerOption{ping.WithRTTScale(1 / s.timeScale)}
	if s.metrics != nil && s.metrics.Ping != nil {
		pingOpts = append(pingOpts, ping.WithMetrics(s.metrics.Ping))
	}
	p, err := ping.NewPinger(ep, uint16(probeID), pingOpts...)
	if err != nil {
		return nil, err
	}
	s.pingers[probeID] = p
	return p, nil
}

// Create validates, charges, and starts a measurement. It returns the
// measurement ID immediately; results accumulate asynchronously.
func (s *LiveService) Create(account string, spec MeasurementSpec) (int, error) {
	if err := spec.Validate(s.platform); err != nil {
		return 0, err
	}
	if err := s.ledger.Charge(account, spec.Cost()); err != nil {
		return 0, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Refund: the measurement never started.
		_ = s.ledger.Refund(account, spec.Cost())
		return 0, errors.New("atlas: service closed")
	}
	s.nextID++
	id := s.nextID
	ctx, cancel := context.WithCancel(context.Background())
	m := &Measurement{ID: id, Account: account, Spec: spec, Status: StatusRunning, cancel: cancel, done: make(chan struct{})}
	s.byID[id] = m
	s.wg.Add(1)
	s.mu.Unlock()
	if s.metrics != nil {
		s.metrics.MeasurementsCreated.Inc()
	}

	go s.run(ctx, m)
	return id, nil
}

func (s *LiveService) run(ctx context.Context, m *Measurement) {
	defer s.wg.Done()
	var firstErr error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, probeID := range m.Spec.ProbeIDs {
		wg.Add(1)
		go func(probeID int) {
			defer wg.Done()
			p, err := s.pinger(probeID)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			for i := 0; i < m.Spec.Count; i++ {
				if ctx.Err() != nil {
					return
				}
				if i > 0 && m.Spec.Interval > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(time.Duration(float64(m.Spec.Interval) * s.timeScale)):
					}
				}
				sample := results.Sample{ProbeID: probeID, Region: m.Spec.Target, Time: time.Now()}
				rtt, err := p.Ping(ctx, m.Spec.Target, m.Spec.Timeout)
				switch {
				case err == nil:
					sample.RTTms = float64(rtt) / float64(time.Millisecond)
				case errors.Is(err, ping.ErrTimeout):
					sample.Lost = true
				case errors.Is(err, context.Canceled):
					return
				default:
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if s.metrics != nil {
					s.metrics.ResultsCollected.Inc()
					if sample.Lost {
						s.metrics.ProbeTimeouts.Inc()
					}
				}
				s.mu.Lock()
				m.Results = append(m.Results, sample)
				s.mu.Unlock()
			}
		}(probeID)
	}
	wg.Wait()
	s.mu.Lock()
	switch {
	case ctx.Err() != nil:
		m.Status = StatusStopped
	case firstErr != nil:
		m.Status = StatusFailed
		m.Error = firstErr.Error()
	default:
		m.Status = StatusDone
	}
	close(m.done)
	final := m.Status
	s.mu.Unlock()
	if s.metrics != nil {
		switch final {
		case StatusDone:
			s.metrics.MeasurementsDone.Inc()
		case StatusFailed:
			s.metrics.MeasurementsFailed.Inc()
		case StatusStopped:
			s.metrics.MeasurementsStopped.Inc()
		}
	}
}

// Stop cancels a running measurement. Results already collected remain
// available; the unused share of the charge is refunded.
func (s *LiveService) Stop(id int) error {
	s.mu.Lock()
	m, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("atlas: unknown measurement %d", id)
	}
	if m.Status != StatusRunning {
		s.mu.Unlock()
		return fmt.Errorf("atlas: measurement %d is %s, not running", id, m.Status)
	}
	// The first Stop claims the cancel under the lock, so exactly one
	// caller cancels and refunds; the rest find it already stopping.
	cancel := m.cancel
	if cancel == nil {
		s.mu.Unlock()
		return fmt.Errorf("atlas: measurement %d is stopping, not running", id)
	}
	m.cancel = nil
	s.mu.Unlock()
	cancel()

	// Wait for the runner to settle so the collected count is final: its
	// pingers have stopped appending before done closes.
	<-m.done
	if unused := m.Spec.Cost() - int64(len(m.Results))*CostPerPing; unused > 0 {
		return s.ledger.Refund(m.Account, unused)
	}
	return nil
}

// Get returns a snapshot of a measurement.
func (s *LiveService) Get(id int) (Measurement, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.byID[id]
	if !ok {
		return Measurement{}, false
	}
	snap := *m
	snap.Results = append([]results.Sample(nil), m.Results...)
	return snap, true
}

// Wait blocks until the measurement leaves the running state or the
// context expires, and returns the final snapshot.
func (s *LiveService) Wait(ctx context.Context, id int) (Measurement, error) {
	s.mu.Lock()
	m, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		return Measurement{}, fmt.Errorf("atlas: unknown measurement %d", id)
	}
	var err error
	select {
	case <-m.done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	snap, _ := s.Get(id)
	return snap, err
}

// Close waits for running measurements and shuts the network down.
func (s *LiveService) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	s.net.Close()
}

// List returns snapshots (without results) of all measurements, optionally
// filtered by account, sorted by ID.
func (s *LiveService) List(account string) []Measurement {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Measurement, 0, len(s.byID))
	for _, m := range s.byID {
		if account != "" && m.Account != account {
			continue
		}
		snap := *m
		snap.Results = nil
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
