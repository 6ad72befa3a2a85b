package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
)

// NewLogger builds the root logger the commands share. Records at or
// above level (debug, info, warn or error) go to w as text (format
// "text" or "logfmt") or JSON ("json") lines and, when rec is non-nil,
// into the flight recorder as JSON. An empty format or level means text
// and info. Label a component's records with With("component", name);
// nested names join with dots, so "scan" under "shears" is
// "shears.scan".
func NewLogger(w io.Writer, format, level string, rec *Recorder) (*slog.Logger, error) {
	lv := slog.LevelInfo
	if level != "" {
		if err := lv.UnmarshalText([]byte(level)); err != nil {
			return nil, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", level)
		}
	}
	opts := &slog.HandlerOptions{Level: lv}
	t := teeHandler{}
	switch strings.ToLower(format) {
	case "text", "logfmt", "":
		t.log = slog.NewTextHandler(w, opts)
	case "json":
		t.log = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	if rec != nil {
		t.rec = slog.NewJSONHandler(rec, opts)
	}
	return slog.New(t), nil
}

// teeHandler forwards each record to the log output and to the flight
// recorder. It keeps the component name itself rather than handing it
// on as an attribute, so a nested With joins the names instead of
// repeating the key; Handle adds it to each record once, last.
type teeHandler struct {
	log, rec  slog.Handler // rec is nil without a recorder
	component string
}

func (t teeHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return t.log.Enabled(ctx, l)
}

func (t teeHandler) Handle(ctx context.Context, r slog.Record) error {
	if t.component != "" {
		r.AddAttrs(slog.String("component", t.component))
	}
	err := t.log.Handle(ctx, r)
	if t.rec != nil {
		if rerr := t.rec.Handle(ctx, r); err == nil {
			err = rerr
		}
	}
	return err
}

func (t teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	var rest []slog.Attr
	for _, a := range attrs {
		if a.Key != "component" {
			rest = append(rest, a)
		} else if t.component == "" {
			t.component = a.Value.String()
		} else {
			t.component += "." + a.Value.String()
		}
	}
	if len(rest) > 0 {
		t.log = t.log.WithAttrs(rest)
		if t.rec != nil {
			t.rec = t.rec.WithAttrs(rest)
		}
	}
	return t
}

func (t teeHandler) WithGroup(name string) slog.Handler {
	t.log = t.log.WithGroup(name)
	if t.rec != nil {
		t.rec = t.rec.WithGroup(name)
	}
	return t
}

// Discard drops every record. A package whose Log option is nil logs
// through it, since calling a method on a nil *slog.Logger panics.
var Discard = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Recorder is the flight recorder: a fixed-size ring of the most recent
// log records, dumped by /debug/events when a run needs a post-hoc look
// at what led up to the current state. It is the io.Writer behind the
// logger's JSON handler, which writes one record per call, so each
// record is encoded when it is logged: a value the caller changes
// afterwards dumps as it was. Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	buf   []json.RawMessage
	next  int
	total uint64
}

// NewRecorder builds a recorder keeping the last n records (minimum 1).
func NewRecorder(n int) *Recorder {
	return &Recorder{buf: make([]json.RawMessage, 0, max(n, 1))}
}

// Write keeps one encoded record, evicting the oldest when the ring is
// full. It copies p, which the handler reuses.
func (r *Recorder) Write(p []byte) (int, error) {
	e := json.RawMessage(bytes.Clone(bytes.TrimSuffix(p, []byte("\n"))))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	return len(p), nil
}

// WriteJSON dumps the ring as one JSON object: how many records were
// ever recorded, how many of those the ring dropped, and the retained
// records oldest-first.
func (r *Recorder) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	events := make([]json.RawMessage, 0, len(r.buf))
	events = append(append(events, r.buf[r.next:]...), r.buf[:r.next]...)
	dump := struct {
		Total   uint64            `json:"total"`
		Dropped uint64            `json:"dropped"`
		Events  []json.RawMessage `json:"events"`
	}{Total: r.total, Dropped: r.total - uint64(len(events)), Events: events}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}
