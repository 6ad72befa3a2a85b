package tcping

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ping"
)

// ErrTimeout is returned when the peer does not answer within the deadline.
var ErrTimeout = errors.New("tcping: timeout")

// Result is one TCP-style probe outcome.
type Result struct {
	// ConnectRTT is the SYN -> SYN-ACK time: the pure network round trip,
	// comparable to a ping.
	ConnectRTT time.Duration `json:"connect_rtt"`
	// TTFB is the REQ -> RESP time: network round trip plus server
	// processing — the application-level latency.
	TTFB time.Duration `json:"ttfb"`
}

// ProcessingDelay returns the server-side share of the TTFB.
func (r Result) ProcessingDelay() time.Duration {
	d := r.TTFB - r.ConnectRTT
	if d < 0 {
		return 0
	}
	return d
}

// Prober runs TCP-style probes from one transport endpoint.
type Prober struct {
	tr ping.Transport

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan *Segment
}

// NewProber wraps a transport and installs its receive handler.
func NewProber(tr ping.Transport) (*Prober, error) {
	if tr == nil {
		return nil, errors.New("tcping: nil transport")
	}
	p := &Prober{
		tr:      tr,
		pending: make(map[uint32]chan *Segment),
	}
	tr.SetHandler(p.onPacket)
	return p, nil
}

func (p *Prober) onPacket(src string, payload []byte) {
	seg, err := UnmarshalSegment(payload)
	if err != nil {
		return
	}
	if seg.Type != TypeSYNACK && seg.Type != TypeRESP {
		return
	}
	p.mu.Lock()
	ch := p.pending[seg.ConnID]
	p.mu.Unlock()
	if ch != nil {
		select {
		case ch <- seg:
		default:
		}
	}
}

// exchange sends one segment and waits for the matching reply type.
func (p *Prober) exchange(ctx context.Context, dst string, connID uint32, sendType, wantType uint8, timeout time.Duration) (time.Duration, error) {
	ch := make(chan *Segment, 1)
	p.mu.Lock()
	p.pending[connID] = ch
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.pending, connID)
		p.mu.Unlock()
	}()

	start := time.Now()
	seg := &Segment{Type: sendType, ConnID: connID, SentUnixNano: start.UnixNano()}
	buf, err := seg.Marshal()
	if err != nil {
		return 0, err
	}
	if err := p.tr.Send(dst, buf); err != nil {
		return 0, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case reply := <-ch:
			if reply.Type != wantType {
				continue // stale segment from a previous phase
			}
			return time.Since(start), nil
		case <-timer.C:
			return 0, ErrTimeout
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// Probe performs one full TCP-style measurement against dst: handshake
// (connect time), then a request (TTFB). The ACK completing the handshake
// is sent before the request, like a real client.
func (p *Prober) Probe(ctx context.Context, dst string, timeout time.Duration) (Result, error) {
	if timeout <= 0 {
		return Result{}, fmt.Errorf("tcping: non-positive timeout %v", timeout)
	}
	p.mu.Lock()
	p.nextID++
	connID := p.nextID
	p.mu.Unlock()

	connect, err := p.exchange(ctx, dst, connID, TypeSYN, TypeSYNACK, timeout)
	if err != nil {
		return Result{}, fmt.Errorf("tcping: connect: %w", err)
	}
	ack := &Segment{Type: TypeACK, ConnID: connID, SentUnixNano: time.Now().UnixNano()}
	buf, err := ack.Marshal()
	if err != nil {
		return Result{}, err
	}
	if err := p.tr.Send(dst, buf); err != nil {
		return Result{}, err
	}
	ttfb, err := p.exchange(ctx, dst, connID, TypeREQ, TypeRESP, timeout)
	if err != nil {
		return Result{}, fmt.Errorf("tcping: request: %w", err)
	}
	return Result{ConnectRTT: connect, TTFB: ttfb}, nil
}
