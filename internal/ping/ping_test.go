package ping

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

func simPair(t *testing.T, delay time.Duration) (*Pinger, *netsim.Network) {
	t.Helper()
	n, err := netsim.NewNetwork(netsim.LinkerFunc(
		func(src, dst string, _ int, at time.Time) (time.Duration, bool, error) {
			return delay, false, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	pe, err := n.Attach("probe/1")
	if err != nil {
		t.Fatal(err)
	}
	de, err := n.Attach("dc/1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPinger(pe, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewResponder(de); err != nil {
		t.Fatal(err)
	}
	return p, n
}

func TestPingOverVirtualNetwork(t *testing.T) {
	p, _ := simPair(t, 5*time.Millisecond)
	rtt, err := p.Ping(context.Background(), "dc/1", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Two legs of 5ms each: RTT must be >= 10ms and not wildly above.
	if rtt < 10*time.Millisecond || rtt > 500*time.Millisecond {
		t.Errorf("RTT = %v, want ~10ms", rtt)
	}
}

func TestPingTimeout(t *testing.T) {
	n, err := netsim.NewNetwork(netsim.LinkerFunc(
		func(src, dst string, _ int, at time.Time) (time.Duration, bool, error) {
			return 0, true, nil // all packets lost
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	pe, _ := n.Attach("probe/1")
	if _, err := n.Attach("dc/1"); err != nil {
		t.Fatal(err)
	}
	p, err := NewPinger(pe, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Ping(context.Background(), "dc/1", 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("got %v, want ErrTimeout", err)
	}
}

func TestPingContextCancel(t *testing.T) {
	p, _ := simPair(t, time.Hour) // never arrives in test time
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Ping(ctx, "dc/1", time.Hour)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Ping did not honor cancellation")
	}
}

func TestPingValidation(t *testing.T) {
	if _, err := NewPinger(nil, 1); err == nil {
		t.Error("nil transport accepted")
	}
	p, _ := simPair(t, time.Millisecond)
	if _, err := p.Ping(context.Background(), "dc/1", 0); err == nil {
		t.Error("zero timeout accepted")
	}
	if _, err := NewResponder(nil); err == nil {
		t.Error("nil responder transport accepted")
	}
}

func TestRTTScale(t *testing.T) {
	n, err := netsim.NewNetwork(netsim.LinkerFunc(
		func(src, dst string, _ int, at time.Time) (time.Duration, bool, error) {
			return time.Millisecond, false, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	pe, _ := n.Attach("p")
	de, _ := n.Attach("d")
	p, err := NewPinger(pe, 1, WithRTTScale(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewResponder(de); err != nil {
		t.Fatal(err)
	}
	rtt, err := p.Ping(context.Background(), "d", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Real RTT ~2ms, scaled by 100 -> >= 200ms reported.
	if rtt < 200*time.Millisecond {
		t.Errorf("scaled RTT = %v, want >= 200ms", rtt)
	}
}

func TestPingerIgnoresForeignTraffic(t *testing.T) {
	p, n := simPair(t, time.Millisecond)
	// Inject garbage and a reply with the wrong pinger ID directly.
	ext, err := n.Attach("external")
	if err != nil {
		t.Fatal(err)
	}
	if err := ext.Send("probe/1", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// The pinger must still work.
	if _, err := p.Ping(context.Background(), "dc/1", time.Second); err != nil {
		t.Errorf("pinger broken by foreign traffic: %v", err)
	}
}

func TestConcurrentPings(t *testing.T) {
	p, _ := simPair(t, 2*time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Ping(context.Background(), "dc/1", 2*time.Second); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPingOverUDP(t *testing.T) {
	reg := NewUDPRegistry()
	pt, err := reg.NewTransport("probe/udp")
	if err != nil {
		t.Fatal(err)
	}
	defer pt.Close()
	dt, err := reg.NewTransport("dc/udp")
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	p, err := NewPinger(pt, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewResponder(dt); err != nil {
		t.Fatal(err)
	}
	rtt, err := p.Ping(context.Background(), "dc/udp", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Errorf("loopback RTT = %v", rtt)
	}
}

func TestUDPRegistry(t *testing.T) {
	reg := NewUDPRegistry()
	if _, err := reg.NewTransport(""); err == nil {
		t.Error("empty name accepted")
	}
	a, err := reg.NewTransport("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.NewTransport("a"); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := a.Send("missing", []byte("x")); err == nil {
		t.Error("send to unknown name accepted")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	// Name is free after close.
	b, err := reg.NewTransport("a")
	if err != nil {
		t.Errorf("name not released: %v", err)
	} else {
		b.Close()
	}
}
