package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level grades log events. Events below a logger's level are dropped
// before any formatting work happens.
type Level int8

// Levels, in ascending severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int8(l))
}

// ParseLevel resolves a level name (debug, info, warn, error).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// LogFormat selects the logger's wire encoding.
type LogFormat int8

// Log encodings: logfmt-style key=value text, or one JSON object per line.
const (
	FormatText LogFormat = iota
	FormatJSON
)

// ParseLogFormat resolves a format name (text, json).
func ParseLogFormat(s string) (LogFormat, error) {
	switch strings.ToLower(s) {
	case "text", "logfmt", "":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatText, fmt.Errorf("obs: unknown log format %q (want text or json)", s)
}

// Field is one ordered key/value pair of a log event.
type Field struct {
	Key   string
	Value any
}

// Event is one recorded log line: what the flight recorder keeps and
// /debug/events serves.
type Event struct {
	Time      time.Time `json:"ts"`
	Level     string    `json:"level"`
	Component string    `json:"component,omitempty"`
	Msg       string    `json:"msg"`
	Fields    []Field   `json:"-"`
}

// MarshalJSON flattens the ordered fields into the event object so the
// wire form reads like the JSON log encoding.
func (e Event) MarshalJSON() ([]byte, error) {
	var sb strings.Builder
	sb.WriteByte('{')
	writeJSONKV(&sb, "ts", e.Time.Format(time.RFC3339Nano))
	sb.WriteByte(',')
	writeJSONKV(&sb, "level", e.Level)
	if e.Component != "" {
		sb.WriteByte(',')
		writeJSONKV(&sb, "component", e.Component)
	}
	sb.WriteByte(',')
	writeJSONKV(&sb, "msg", e.Msg)
	for _, f := range e.Fields {
		sb.WriteByte(',')
		writeJSONKV(&sb, f.Key, f.Value)
	}
	sb.WriteByte('}')
	return []byte(sb.String()), nil
}

// writeJSONKV appends one `"key":value` pair; values that fail to
// marshal degrade to their string form rather than poisoning the line.
func writeJSONKV(sb *strings.Builder, key string, value any) {
	kb, _ := json.Marshal(key)
	sb.Write(kb)
	sb.WriteByte(':')
	vb, err := json.Marshal(value)
	if err != nil {
		vb, _ = json.Marshal(fmt.Sprint(value))
	}
	sb.Write(vb)
}

// Recorder is the flight recorder: a fixed-size ring of the most recent
// log events, dumped by /debug/events when a run needs a post-hoc look
// at what led up to the current state. Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewRecorder builds a recorder keeping the last n events (minimum 1).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{buf: make([]Event, 0, n)}
}

// Record appends one event, evicting the oldest when the ring is full.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Events snapshots the ring, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns how many events were ever recorded (including evicted
// ones), so a dump can report how much history the ring dropped.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// WriteJSON dumps the ring as one JSON object: total recorded, dropped
// count, and the retained events oldest-first.
func (r *Recorder) WriteJSON(w io.Writer) error {
	events := r.Events()
	total := r.Total()
	dump := struct {
		Total   uint64  `json:"total"`
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}{Total: total, Dropped: total - uint64(len(events)), Events: events}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// logSink is the shared backend of a logger family: one writer, one
// format, one level gate, one optional flight recorder. Sub-loggers
// built with With share it, so their output interleaves safely.
type logSink struct {
	mu     sync.Mutex
	w      io.Writer
	format LogFormat
	level  Level
	rec    *Recorder
	clock  func() time.Time
}

// Logger is a leveled, structured key-value logger. The zero-cost rule
// matches the metric types: a nil *Logger is inert, so instrumented
// code never guards. Loggers are cheap values sharing one sink; build
// per-component children with With.
type Logger struct {
	sink      *logSink
	component string
}

// LoggerOption configures NewLogger.
type LoggerOption func(*logSink)

// WithLogFormat selects text (logfmt) or JSON encoding.
func WithLogFormat(f LogFormat) LoggerOption {
	return func(s *logSink) { s.format = f }
}

// WithLogLevel sets the minimum level that gets emitted.
func WithLogLevel(l Level) LoggerOption {
	return func(s *logSink) { s.level = l }
}

// WithRecorder mirrors every emitted event into the flight recorder.
func WithRecorder(r *Recorder) LoggerOption {
	return func(s *logSink) { s.rec = r }
}

// NewLogger builds a root logger writing to w (defaults: text format,
// info level, wall clock, no recorder).
func NewLogger(w io.Writer, opts ...LoggerOption) *Logger {
	s := &logSink{w: w, format: FormatText, level: LevelInfo, clock: time.Now}
	for _, o := range opts {
		o(s)
	}
	return &Logger{sink: s}
}

// With returns a sub-logger for a component, sharing the parent's sink.
// Nested calls join components with dots: With("scan") on a "shears"
// logger labels events "shears.scan".
func (l *Logger) With(component string) *Logger {
	if l == nil {
		return nil
	}
	name := component
	if l.component != "" {
		name = l.component + "." + component
	}
	return &Logger{sink: l.sink, component: name}
}

// Debug emits a debug event. kv alternates keys and values.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info emits an info event. kv alternates keys and values.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn emits a warning event. kv alternates keys and values.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error emits an error event. kv alternates keys and values.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// fields pairs the variadic kv list up. A trailing odd value is kept
// under the "!extra" key instead of being dropped silently.
func fields(kv []any) []Field {
	if len(kv) == 0 {
		return nil
	}
	out := make([]Field, 0, (len(kv)+1)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		out = append(out, Field{Key: key, Value: normalizeValue(kv[i+1])})
	}
	if len(kv)%2 != 0 {
		out = append(out, Field{Key: "!extra", Value: normalizeValue(kv[len(kv)-1])})
	}
	return out
}

// normalizeValue keeps recorder-retained values stable: errors and
// Stringers are captured as strings at log time, not at dump time.
func normalizeValue(v any) any {
	switch t := v.(type) {
	case error:
		return t.Error()
	case time.Duration:
		return t.String()
	case fmt.Stringer:
		return t.String()
	}
	return v
}

func (l *Logger) log(level Level, msg string, kv []any) {
	if l == nil || level < l.sink.level {
		return
	}
	s := l.sink
	e := Event{
		Time:      s.clock(),
		Level:     level.String(),
		Component: l.component,
		Msg:       msg,
		Fields:    fields(kv),
	}
	s.rec.Record(e)
	if s.w == nil {
		return
	}
	var line []byte
	switch s.format {
	case FormatJSON:
		line, _ = e.MarshalJSON()
		line = append(line, '\n')
	default:
		line = appendLogfmt(nil, e)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Write(line)
}

// appendLogfmt renders one event as a logfmt line:
// ts=... level=info component=shears msg="campaign done" samples=42
func appendLogfmt(b []byte, e Event) []byte {
	b = append(b, "ts="...)
	b = e.Time.AppendFormat(b, time.RFC3339)
	b = append(b, " level="...)
	b = append(b, e.Level...)
	if e.Component != "" {
		b = append(b, " component="...)
		b = appendLogfmtValue(b, e.Component)
	}
	b = append(b, " msg="...)
	b = appendLogfmtValue(b, e.Msg)
	for _, f := range e.Fields {
		b = append(b, ' ')
		b = append(b, f.Key...)
		b = append(b, '=')
		b = appendLogfmtValue(b, f.Value)
	}
	return append(b, '\n')
}

// appendLogfmtValue renders one value, quoting strings that contain
// whitespace, quotes, or '=' so lines stay machine-splittable.
func appendLogfmtValue(b []byte, v any) []byte {
	switch t := v.(type) {
	case string:
		if needsQuoting(t) {
			return strconv.AppendQuote(b, t)
		}
		if t == "" {
			return append(b, `""`...)
		}
		return append(b, t...)
	case int:
		return strconv.AppendInt(b, int64(t), 10)
	case int64:
		return strconv.AppendInt(b, t, 10)
	case uint64:
		return strconv.AppendUint(b, t, 10)
	case float64:
		return strconv.AppendFloat(b, t, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(b, t)
	case time.Time:
		return t.AppendFormat(b, time.RFC3339)
	}
	s := fmt.Sprint(v)
	if needsQuoting(s) {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

func needsQuoting(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == '"' || c == '=' || c >= 0x7f {
			return true
		}
	}
	return false
}
