package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	return func() time.Time { return time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC) }
}

// clocked pins l's clock to fixedClock.
func clocked(l *Logger) *Logger {
	l.sink.clock = fixedClock()
	return l
}

func TestLoggerTextFormat(t *testing.T) {
	var buf bytes.Buffer
	l := clocked(NewLogger(&buf))
	l.With("shears").Info("campaign done", "samples", 42, "rate", 1.5, "out", "my dir")
	got := buf.String()
	want := `ts=2020-06-01T12:00:00Z level=info component=shears msg="campaign done" samples=42 rate=1.5 out="my dir"` + "\n"
	if got != want {
		t.Errorf("logfmt line:\n got %q\nwant %q", got, want)
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	l := clocked(NewLogger(&buf, WithLogFormat(FormatJSON)))
	l.With("atlasd").Warn("slow request", "route", "probes", "ms", 12.5)
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("JSON line does not parse: %v\n%s", err, buf.String())
	}
	for k, want := range map[string]any{
		"level":     "warn",
		"component": "atlasd",
		"msg":       "slow request",
		"route":     "probes",
		"ms":        12.5,
	} {
		if obj[k] != want {
			t.Errorf("field %q = %v, want %v", k, obj[k], want)
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, obj["ts"].(string)); err != nil {
		t.Errorf("ts field: %v", err)
	}
}

func TestLoggerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, WithLogLevel(LevelWarn))
	l.Debug("dropped")
	l.Info("dropped")
	l.Warn("kept")
	l.Error("kept")
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Errorf("level gate let %d lines through, want 2:\n%s", n, buf.String())
	}
}

func TestLoggerNilInert(t *testing.T) {
	var l *Logger
	// None of these may panic.
	l.Debug("x")
	l.Info("x", "k", 1)
	l.Warn("x")
	l.Error("x", "err", fmt.Errorf("boom"))
	if l.With("sub") != nil {
		t.Error("nil Logger With returned non-nil")
	}
	var r *Recorder
	r.Record(Event{})
	if r.Events() != nil || r.Total() != 0 {
		t.Error("nil Recorder not inert")
	}
}

func TestLoggerSubComponentNesting(t *testing.T) {
	var buf bytes.Buffer
	l := clocked(NewLogger(&buf)).With("shears").With("scan")
	l.Info("m")
	want := `ts=2020-06-01T12:00:00Z level=info component=shears.scan msg=m` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("nested component line = %q, want %q", got, want)
	}
}

func TestLoggerNormalizesValues(t *testing.T) {
	var buf bytes.Buffer
	l := clocked(NewLogger(&buf))
	l.Info("m", "err", fmt.Errorf("sink: broken"), "took", 1500*time.Millisecond)
	got := buf.String()
	if !strings.Contains(got, `err="sink: broken"`) {
		t.Errorf("error value not normalized: %q", got)
	}
	if !strings.Contains(got, "took=1.5s") {
		t.Errorf("duration value not normalized: %q", got)
	}
}

func TestLoggerOddKVKept(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.Info("m", "k1", 1, "dangling")
	if !strings.Contains(buf.String(), "!extra=dangling") {
		t.Errorf("odd trailing value dropped: %q", buf.String())
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(Event{Msg: fmt.Sprintf("e%d", i)})
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("ring kept %d events, want 3", len(events))
	}
	for i, want := range []string{"e2", "e3", "e4"} {
		if events[i].Msg != want {
			t.Errorf("events[%d] = %q, want %q (oldest first)", i, events[i].Msg, want)
		}
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
}

func TestRecorderWriteJSON(t *testing.T) {
	r := NewRecorder(2)
	l := clocked(NewLogger(nil, WithRecorder(r)))
	l.With("engine").Info("checkpoint", "round", 16)
	l.With("engine").Info("checkpoint", "round", 32)
	l.With("engine").Info("checkpoint", "round", 48)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Total   uint64           `json:"total"`
		Dropped uint64           `json:"dropped"`
		Events  []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("events dump does not parse: %v\n%s", err, buf.String())
	}
	if dump.Total != 3 || dump.Dropped != 1 || len(dump.Events) != 2 {
		t.Errorf("dump total=%d dropped=%d events=%d, want 3/1/2", dump.Total, dump.Dropped, len(dump.Events))
	}
	if dump.Events[0]["round"] != float64(32) {
		t.Errorf("oldest retained event round = %v, want 32", dump.Events[0]["round"])
	}
	if dump.Events[0]["component"] != "engine" {
		t.Errorf("component lost in dump: %v", dump.Events[0])
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(64)
	l := NewLogger(&buf, WithRecorder(rec))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := l.With(fmt.Sprintf("g%d", g))
			for i := 0; i < 50; i++ {
				sub.Info("tick", "i", i)
			}
		}(g)
	}
	wg.Wait()
	if n := strings.Count(buf.String(), "\n"); n != 400 {
		t.Errorf("concurrent writers produced %d lines, want 400", n)
	}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, "msg=tick") {
			t.Fatalf("torn log line: %q", line)
		}
	}
	if rec.Total() != 400 {
		t.Errorf("recorder saw %d events, want 400", rec.Total())
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "": LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
	for in, want := range map[string]LogFormat{"text": FormatText, "logfmt": FormatText, "json": FormatJSON, "": FormatText} {
		got, err := ParseLogFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseLogFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLogFormat("xml"); err == nil {
		t.Error("ParseLogFormat accepted garbage")
	}
}
