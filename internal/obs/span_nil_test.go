package obs

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestNilSpanInert pins the package's contract that a nil *Span is a
// no-op for EVERY public method: instrumented code runs untraced with
// no guards, and a disabled -trace flag costs nothing. Each method is
// exercised explicitly so adding a method without a nil guard fails
// here rather than panicking inside a campaign.
func TestNilSpanInert(t *testing.T) {
	var s *Span

	if c := s.Child("child"); c != nil {
		t.Error("nil.Child returned a non-nil span")
	}
	if c := s.ChildSpent("child", time.Second); c != nil {
		t.Error("nil.ChildSpent returned a non-nil span")
	}
	s.SetAttr("k", "v") // must not panic
	s.End()             // must not panic
	if d := s.Duration(); d != 0 {
		t.Errorf("nil.Duration = %v, want 0", d)
	}
	if d := s.Dump(); d.Name != "" || len(d.Children) != 0 || d.Attrs != nil {
		t.Errorf("nil.Dump = %+v, want zero value", d)
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Errorf("nil.WriteChromeTrace error: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil.WriteChromeTrace wrote %q, want nothing", buf.String())
	}

	// Context plumbing: a nil span round-trips as nil without storing.
	ctx := context.Background()
	if got := ContextWith(ctx, s); got != ctx {
		t.Error("ContextWith(nil) allocated a new context")
	}
	if got := From(ctx); got != nil {
		t.Errorf("From(empty ctx) = %v, want nil", got)
	}

	// The whole chain composes: a nil root yields nil children that stay
	// inert through arbitrarily deep instrumentation.
	deep := s.Child("a").Child("b").Child("c")
	deep.SetAttr("x", 1)
	deep.End()
	if deep != nil {
		t.Error("nil chain produced a live span")
	}
}

// TestNilSpanConcurrent exercises the nil no-ops from many goroutines,
// mirroring how fan-out workers hit a disabled trace; runs under -race
// in scripts/check.sh.
func TestNilSpanConcurrent(t *testing.T) {
	var s *Span
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				c := s.Child("w")
				c.SetAttr("j", j)
				_ = c.Duration()
				c.End()
			}
		}()
	}
	timeout := time.After(5 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("nil span goroutines hung")
		}
	}
}
