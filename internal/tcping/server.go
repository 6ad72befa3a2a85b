package tcping

import (
	"errors"
	"sync"
	"time"

	"repro/internal/ping"
)

// Server answers TCP-style probes on a transport: SYN-ACKs handshakes and
// serves requests after a configurable processing delay — the in-cloud
// compute share of application latency the paper's §5 discusses.
type Server struct {
	tr      ping.Transport
	delayFn func(connID uint32) time.Duration
	sleep   func(time.Duration)

	mu   sync.Mutex
	open map[uint32]bool
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithProcessingDelay sets the per-request compute delay. The default is
// zero (an echo-like service). The function is keyed by connection so
// deterministic simulations can vary it reproducibly.
func WithProcessingDelay(fn func(connID uint32) time.Duration) ServerOption {
	return func(s *Server) {
		if fn != nil {
			s.delayFn = fn
		}
	}
}

// NewServer installs the server as the transport's handler.
func NewServer(tr ping.Transport, opts ...ServerOption) (*Server, error) {
	if tr == nil {
		return nil, errors.New("tcping: nil transport")
	}
	s := &Server{
		tr:      tr,
		delayFn: func(uint32) time.Duration { return 0 },
		sleep:   time.Sleep,
		open:    make(map[uint32]bool),
	}
	for _, o := range opts {
		o(s)
	}
	tr.SetHandler(s.onPacket)
	return s, nil
}

func (s *Server) onPacket(src string, payload []byte) {
	seg, err := UnmarshalSegment(payload)
	if err != nil {
		return
	}
	switch seg.Type {
	case TypeSYN:
		// The connection is usable once SYN-ACKed: like real TCP, the
		// client's first data segment may carry the ACK (and the network
		// may reorder equal-delay packets).
		s.mu.Lock()
		s.open[seg.ConnID] = true
		s.mu.Unlock()
		s.reply(src, TypeSYNACK, seg.ConnID)
	case TypeACK:
		// State confirmation only; the SYN already opened the connection.
	case TypeREQ:
		s.mu.Lock()
		established := s.open[seg.ConnID]
		s.mu.Unlock()
		if !established {
			return // request on a half-open connection: drop, like a RST
		}
		if d := s.delayFn(seg.ConnID); d > 0 {
			s.sleep(d)
		}
		s.reply(src, TypeRESP, seg.ConnID)
	}
}

func (s *Server) reply(dst string, typ uint8, connID uint32) {
	seg := &Segment{Type: typ, ConnID: connID, SentUnixNano: time.Now().UnixNano()}
	buf, err := seg.Marshal()
	if err != nil {
		return
	}
	_ = s.tr.Send(dst, buf) // loss is silent, like the network
}
