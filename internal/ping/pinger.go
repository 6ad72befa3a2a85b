package ping

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/echo"
)

// ErrTimeout is returned when no reply arrives within the deadline; the
// measurement records it as packet loss, as the paper's ping methodology
// does.
var ErrTimeout = errors.New("ping: timeout")

// Pinger sends echo requests from one transport endpoint and matches
// replies to compute RTTs. It is safe for concurrent pings to different
// (or the same) destinations.
type Pinger struct {
	tr       Transport
	id       uint16
	rttScale float64
	metrics  *Metrics

	mu      sync.Mutex
	nextSeq uint16
	pending map[uint16]chan time.Duration
}

// PingerOption configures a Pinger.
type PingerOption func(*Pinger)

// WithRTTScale multiplies measured wall-clock RTTs by the given factor.
// Pair it with netsim.WithTimeScale(1/f) to run compressed simulations that
// still report full-scale latencies.
func WithRTTScale(f float64) PingerOption {
	return func(p *Pinger) {
		if f > 0 {
			p.rttScale = f
		}
	}
}

// NewPinger wraps a transport and installs its receive handler. The id
// distinguishes this pinger's traffic, mirroring the ICMP echo identifier.
func NewPinger(tr Transport, id uint16, opts ...PingerOption) (*Pinger, error) {
	if tr == nil {
		return nil, errors.New("ping: nil transport")
	}
	p := &Pinger{
		tr:       tr,
		id:       id,
		rttScale: 1,
		pending:  make(map[uint16]chan time.Duration),
	}
	for _, o := range opts {
		o(p)
	}
	if p.metrics == nil {
		p.metrics = &Metrics{} // nil obs fields: recording is a no-op
	}
	tr.SetHandler(p.onPacket)
	return p, nil
}

func (p *Pinger) onPacket(src string, payload []byte) {
	m, err := echo.Unmarshal(payload)
	if err != nil || m.Type != echo.TypeEchoReply || m.ID != p.id {
		return // not ours; drop like a kernel would
	}
	elapsed := time.Since(time.Unix(0, m.SentUnixNano))
	if elapsed < 0 {
		return
	}
	p.mu.Lock()
	ch, ok := p.pending[m.Seq]
	if ok {
		delete(p.pending, m.Seq)
	}
	p.mu.Unlock()
	if ok {
		// Non-blocking: the waiter may have timed out concurrently.
		select {
		case ch <- time.Duration(float64(elapsed) * p.rttScale):
		default:
		}
	}
}

// Ping sends one echo request to dst and waits for the reply or the
// timeout. The returned duration is the measured RTT (scaled if WithRTTScale
// was set).
func (p *Pinger) Ping(ctx context.Context, dst string, timeout time.Duration) (time.Duration, error) {
	if timeout <= 0 {
		return 0, fmt.Errorf("ping: non-positive timeout %v", timeout)
	}
	ch := make(chan time.Duration, 1)
	p.mu.Lock()
	seq := p.nextSeq
	p.nextSeq++
	p.pending[seq] = ch
	p.mu.Unlock()

	defer func() {
		p.mu.Lock()
		delete(p.pending, seq)
		p.mu.Unlock()
	}()

	req := &echo.Message{
		Type:         echo.TypeEchoRequest,
		ID:           p.id,
		Seq:          seq,
		SentUnixNano: time.Now().UnixNano(),
	}
	buf, err := req.Marshal()
	if err != nil {
		return 0, err
	}
	if err := p.tr.Send(dst, buf); err != nil {
		return 0, err
	}
	p.metrics.Sent.Inc()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case rtt := <-ch:
		p.metrics.Received.Inc()
		p.metrics.RTTms.Observe(float64(rtt) / float64(time.Millisecond))
		return rtt, nil
	case <-timer.C:
		p.metrics.Timeouts.Inc()
		return 0, ErrTimeout
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}
