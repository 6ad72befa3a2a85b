package netsim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func constLinker(d time.Duration) Linker {
	return LinkerFunc(func(src, dst string, _ int, at time.Time) (time.Duration, bool, error) {
		return d, false, nil
	})
}

// counted builds a network over l whose counters the test reads.
func counted(t *testing.T, l Linker) (*Network, *Metrics) {
	t.Helper()
	m := NewMetrics(obs.NewRegistry())
	n, err := NewNetwork(l, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	return n, m
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil); err == nil {
		t.Error("nil linker accepted")
	}
}

func TestAttachValidation(t *testing.T) {
	n, err := NewNetwork(constLinker(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Attach(""); err == nil {
		t.Error("empty address accepted")
	}
	if _, err := n.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("a"); err == nil {
		t.Error("duplicate address accepted")
	}
}

func TestDelivery(t *testing.T) {
	n, m := counted(t, constLinker(time.Millisecond))
	defer n.Close()
	a, err := n.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	b.SetHandler(func(src string, payload []byte) {
		got <- src + ":" + string(payload)
	})
	if err := a.Send("b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg != "a:hi" {
			t.Errorf("delivered %q", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived")
	}
	if m.Sent.Value() != 1 || m.Delivered.Value() != 1 {
		t.Errorf("sent %d, delivered %d", m.Sent.Value(), m.Delivered.Value())
	}
}

func TestPayloadIsCopied(t *testing.T) {
	n, err := NewNetwork(constLinker(5 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	got := make(chan []byte, 1)
	b.SetHandler(func(_ string, payload []byte) { got <- payload })
	buf := []byte("original")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "TAMPERED")
	select {
	case p := <-got:
		if string(p) != "original" {
			t.Errorf("payload mutated in flight: %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived")
	}
}

func TestLoss(t *testing.T) {
	lossy := LinkerFunc(func(src, dst string, _ int, at time.Time) (time.Duration, bool, error) {
		return 0, true, nil
	})
	n, m := counted(t, lossy)
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	var delivered atomic.Int32
	b.SetHandler(func(string, []byte) { delivered.Add(1) })
	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err) // loss must be silent
		}
	}
	n.Close()
	if delivered.Load() != 0 {
		t.Errorf("%d packets delivered on a fully lossy link", delivered.Load())
	}
	if got := m.Dropped.Value(); got != 10 {
		t.Errorf("Dropped = %d, want 10", got)
	}
}

func TestLinkerError(t *testing.T) {
	bad := LinkerFunc(func(src, dst string, _ int, at time.Time) (time.Duration, bool, error) {
		return 0, false, errors.New("no route")
	})
	n, m := counted(t, bad)
	defer n.Close()
	a, _ := n.Attach("a")
	if err := a.Send("b", nil); err == nil {
		t.Error("linker error not surfaced")
	}
	if got := m.LinkerError.Value(); got != 1 {
		t.Errorf("LinkerError = %d", got)
	}
}

func TestUnroutable(t *testing.T) {
	n, m := counted(t, constLinker(0))
	defer n.Close()
	a, _ := n.Attach("a")
	// No handler on b, and c never attached.
	if _, err := n.Attach("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Both packets are in flight; wait for their arrival to be counted.
	for deadline := time.Now().Add(2 * time.Second); m.Unroutable.Value() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Unroutable = %d, want 2", m.Unroutable.Value())
		}
	}
}

func TestSendAfterClose(t *testing.T) {
	n, err := NewNetwork(constLinker(0))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := n.Attach("a")
	n.Close()
	if err := a.Send("b", nil); err == nil {
		t.Error("send after close accepted")
	}
	n.Close() // double close is a no-op
	if _, err := n.Attach("b"); err == nil {
		t.Error("attach after close accepted")
	}
}

func TestTimeScaleCompressesDelay(t *testing.T) {
	// A 500ms link at 0.01 scale must deliver in well under 100ms.
	n, err := NewNetwork(constLinker(500*time.Millisecond), WithTimeScale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	got := make(chan struct{}, 1)
	b.SetHandler(func(string, []byte) { got <- struct{}{} })
	start := time.Now()
	if err := a.Send("b", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		if el := time.Since(start); el > 200*time.Millisecond {
			t.Errorf("delivery took %v, time scale not applied", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived")
	}
}

func TestConcurrentSends(t *testing.T) {
	n, err := NewNetwork(constLinker(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	const senders = 8
	const perSender = 50
	sink, _ := n.Attach("sink")
	var delivered atomic.Int32
	all := make(chan struct{})
	sink.SetHandler(func(string, []byte) {
		if delivered.Add(1) == senders*perSender {
			close(all)
		}
	})
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		ep, err := n.Attach(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				if err := ep.Send("sink", []byte{byte(j)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Errorf("delivered %d, want %d", delivered.Load(), senders*perSender)
	}
	n.Close()
}

func TestEmptyDestination(t *testing.T) {
	n, err := NewNetwork(constLinker(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	a, _ := n.Attach("a")
	if err := a.Send("", nil); err == nil {
		t.Error("empty destination accepted")
	}
}

// sizedLinker records the sizes it was asked about.
type sizedLinker struct {
	mu    sync.Mutex
	sizes []int
}

func (l *sizedLinker) Link(src, dst string, size int, at time.Time) (time.Duration, bool, error) {
	l.mu.Lock()
	l.sizes = append(l.sizes, size)
	l.mu.Unlock()
	return time.Millisecond, false, nil
}

func TestSizedLinkerReceivesPayloadSize(t *testing.T) {
	linker := &sizedLinker{}
	n, err := NewNetwork(linker)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	got := make(chan struct{}, 1)
	b.SetHandler(func(string, []byte) { got <- struct{}{} })
	payload := make([]byte, 137)
	if err := a.Send("b", payload); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived")
	}
	n.Close()
	linker.mu.Lock()
	defer linker.mu.Unlock()
	if len(linker.sizes) != 1 || linker.sizes[0] != 137 {
		t.Errorf("sized linker saw %v, want [137]", linker.sizes)
	}
}
