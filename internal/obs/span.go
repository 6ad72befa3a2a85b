package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed region of a trace. Spans form a tree: the campaign
// driver opens a root with NewTrace, and each stage (world build,
// schedule, per-round fan-out, result write, figure generation) opens
// children. A nil *Span is inert, so instrumented code can run untraced
// at zero cost beyond a nil check.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	attrs    map[string]any
	children []*Span
	clock    func() time.Time
}

// NewTrace starts a root span.
func NewTrace(name string) *Span { return newTrace(name, time.Now) }

// newTrace starts a root span whose spans read the given clock.
func newTrace(name string, clock func() time.Time) *Span {
	s := &Span{name: name, clock: clock}
	s.start = clock()
	return s
}

// Child starts a nested span. Safe to call concurrently from fan-out
// workers; each child must be Ended by its own worker.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &Span{name: name, clock: s.clock}
	c.start = c.clock()
	s.children = append(s.children, c)
	return c
}

// ChildSpent adds an ended child that lasts d and ends now. It stands
// for a stage that ran in many slices, each too short to time as a span
// of its own: d is the slices' summed time, so a stage table counts the
// stage's own time, not the interval it was spread over.
func (s *Span) ChildSpent(name string, d time.Duration) *Span {
	c := s.Child(name)
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.end = c.start
	c.start = c.end.Add(-d)
	return c
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		s.end = s.clock()
	}
}

// Duration returns the span length (to now, if still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return s.clock().Sub(s.start)
	}
	return s.end.Sub(s.start)
}

// SpanDump is the exported snapshot of a span tree: what
// WriteChromeTrace serializes and ParseTrace rebuilds.
type SpanDump struct {
	Name       string
	Start      time.Time
	DurationMs float64
	Attrs      map[string]any
	Children   []SpanDump
}

// Dump snapshots the span tree. Open spans report their duration so far.
func (s *Span) Dump() SpanDump {
	if s == nil {
		return SpanDump{}
	}
	s.mu.Lock()
	d := SpanDump{
		Name:  s.name,
		Start: s.start,
	}
	end := s.end
	if end.IsZero() {
		end = s.clock()
	}
	d.DurationMs = float64(end.Sub(s.start)) / float64(time.Millisecond)
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.Dump())
	}
	return d
}

// spanKey is the context key for the active span.
type spanKey struct{}

// ContextWith returns a context carrying the span.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// From extracts the active span from the context, or nil.
func From(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
