package tcping

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/ping"
)

func TestSegmentRoundTrip(t *testing.T) {
	prop := func(typRaw uint8, connID uint32, ts int64) bool {
		typ := TypeSYN + typRaw%(TypeRESP-TypeSYN+1)
		s := &Segment{Type: typ, ConnID: connID, SentUnixNano: ts}
		buf, err := s.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalSegment(buf)
		if err != nil {
			return false
		}
		return got.Type == typ && got.ConnID == connID && got.SentUnixNano == ts
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSegmentErrors(t *testing.T) {
	if _, err := UnmarshalSegment(make([]byte, segmentLen-1)); !errors.Is(err, ErrShortSegment) {
		t.Errorf("short: %v", err)
	}
	bad := make([]byte, segmentLen)
	bad[0] = 99
	if _, err := UnmarshalSegment(bad); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: %v", err)
	}
	s := &Segment{Type: 0}
	if _, err := s.Marshal(); !errors.Is(err, ErrBadType) {
		t.Errorf("marshal bad type: %v", err)
	}
}

func pair(t *testing.T, delay time.Duration, opts ...ServerOption) *Prober {
	t.Helper()
	n, err := netsim.NewNetwork(netsim.LinkerFunc(
		func(src, dst string, at time.Time) (time.Duration, bool, error) {
			return delay, false, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	ce, err := n.Attach("client")
	if err != nil {
		t.Fatal(err)
	}
	se, err := n.Attach("server")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(ce)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(se, opts...); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProbeMeasuresConnectAndTTFB(t *testing.T) {
	const oneWay = 4 * time.Millisecond
	const processing = 30 * time.Millisecond
	p := pair(t, oneWay, WithProcessingDelay(func(uint32) time.Duration { return processing }))
	res, err := p.Probe(context.Background(), "server", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Connect = 2 legs; TTFB = 2 legs + processing.
	if res.ConnectRTT < 2*oneWay || res.ConnectRTT > 20*oneWay {
		t.Errorf("connect = %v, want ~%v", res.ConnectRTT, 2*oneWay)
	}
	if res.TTFB < 2*oneWay+processing {
		t.Errorf("TTFB = %v, want >= %v", res.TTFB, 2*oneWay+processing)
	}
	if got := res.ProcessingDelay(); got < processing/2 {
		t.Errorf("processing share = %v, want ~%v", got, processing)
	}
}

func TestProcessingDelayNonNegative(t *testing.T) {
	r := Result{ConnectRTT: 10 * time.Millisecond, TTFB: 5 * time.Millisecond}
	if r.ProcessingDelay() != 0 {
		t.Error("negative processing delay leaked")
	}
}

func TestHalfOpenConnectionRejected(t *testing.T) {
	// A REQ without a completed handshake is dropped.
	n, err := netsim.NewNetwork(netsim.LinkerFunc(
		func(src, dst string, at time.Time) (time.Duration, bool, error) {
			return time.Millisecond, false, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	ce, _ := n.Attach("client")
	se, _ := n.Attach("server")
	if _, err := NewServer(se); err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, 1)
	ce.SetHandler(func(string, []byte) { got <- struct{}{} })
	seg := &Segment{Type: TypeREQ, ConnID: 7}
	buf, err := seg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.Send("server", buf); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Error("half-open request answered")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestProbeTimeout(t *testing.T) {
	n, err := netsim.NewNetwork(netsim.LinkerFunc(
		func(src, dst string, at time.Time) (time.Duration, bool, error) {
			return 0, true, nil // black hole
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	ce, _ := n.Attach("client")
	if _, err := n.Attach("server"); err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(ce)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Probe(context.Background(), "server", 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("got %v, want ErrTimeout", err)
	}
}

func TestProbeValidation(t *testing.T) {
	if _, err := NewProber(nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewServer(nil); err == nil {
		t.Error("nil server transport accepted")
	}
	p := pair(t, time.Millisecond)
	if _, err := p.Probe(context.Background(), "server", 0); err == nil {
		t.Error("zero timeout accepted")
	}
}

func TestProbeContextCancel(t *testing.T) {
	p := pair(t, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Probe(ctx, "server", time.Hour)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel ignored")
	}
}

func TestOverUDP(t *testing.T) {
	reg := ping.NewUDPRegistry()
	ct, err := reg.NewTransport("tc-client")
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	st, err := reg.NewTransport("tc-server")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := NewProber(ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(st, WithProcessingDelay(func(uint32) time.Duration { return 2 * time.Millisecond })); err != nil {
		t.Fatal(err)
	}
	res, err := p.Probe(context.Background(), "tc-server", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConnectRTT <= 0 || res.TTFB < res.ConnectRTT {
		t.Errorf("result = %+v", res)
	}
}

func TestTTFBExceedsConnectOverManyProbes(t *testing.T) {
	p := pair(t, 2*time.Millisecond,
		WithProcessingDelay(func(id uint32) time.Duration {
			return time.Duration(5+id%10) * time.Millisecond
		}))
	for i := 0; i < 10; i++ {
		res, err := p.Probe(context.Background(), "server", 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.TTFB <= res.ConnectRTT {
			t.Errorf("probe %d: TTFB %v <= connect %v", i, res.TTFB, res.ConnectRTT)
		}
	}
}
