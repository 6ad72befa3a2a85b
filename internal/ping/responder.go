package ping

import (
	"errors"

	"repro/internal/echo"
)

// Responder answers echo requests on a transport, playing the role of the
// VM the paper establishes in every cloud region (§4.1).
type Responder struct {
	tr Transport
}

// NewResponder installs the responder as the transport's handler.
func NewResponder(tr Transport) (*Responder, error) {
	if tr == nil {
		return nil, errors.New("ping: nil transport")
	}
	r := &Responder{tr: tr}
	tr.SetHandler(r.onPacket)
	return r, nil
}

func (r *Responder) onPacket(src string, payload []byte) {
	m, err := echo.Unmarshal(payload)
	if err != nil || m.Type != echo.TypeEchoRequest {
		return // malformed, or not a request: dropped, as a host would
	}
	rep, err := m.Reply().Marshal()
	if err != nil {
		return
	}
	// A reply that cannot be sent is lost, like any reply on the wire.
	_ = r.tr.Send(src, rep)
}
