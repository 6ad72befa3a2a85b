package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// newLogger is NewLogger for arguments the test knows are valid.
func newLogger(t *testing.T, buf *bytes.Buffer, format, level string, rec *Recorder) *slog.Logger {
	t.Helper()
	l, err := NewLogger(buf, format, level, rec)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// untimed checks that a text line opens with a parseable time field and
// returns the rest of it.
func untimed(t *testing.T, line string) string {
	t.Helper()
	ts, rest, ok := strings.Cut(strings.TrimPrefix(line, "time="), " ")
	if !ok || !strings.HasPrefix(line, "time=") {
		t.Fatalf("line does not open with its time: %q", line)
	}
	if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Errorf("time field: %v", err)
	}
	return rest
}

// dump decodes a recorder's /debug/events body.
type dump struct {
	Total   uint64           `json:"total"`
	Dropped uint64           `json:"dropped"`
	Events  []map[string]any `json:"events"`
}

func dumpOf(t *testing.T, rec *Recorder) dump {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("events dump does not parse: %v\n%s", err, buf.String())
	}
	return d
}

func TestLoggerTextFormat(t *testing.T) {
	var buf bytes.Buffer
	l := newLogger(t, &buf, "text", "info", nil).With("component", "shears")
	l.Info("campaign done", "samples", 42, "rate", 1.5, "out", "my dir")
	want := `level=INFO msg="campaign done" samples=42 rate=1.5 out="my dir" component=shears` + "\n"
	if got := untimed(t, buf.String()); got != want {
		t.Errorf("text line:\n got %q\nwant %q", got, want)
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	l := newLogger(t, &buf, "json", "info", nil).With("component", "atlasd")
	l.Warn("slow request", "route", "probes", "ms", 12.5, "error", fmt.Errorf("sink: broken"))
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("JSON line does not parse: %v\n%s", err, buf.String())
	}
	for k, want := range map[string]any{
		"level":     "WARN",
		"component": "atlasd",
		"msg":       "slow request",
		"route":     "probes",
		"ms":        12.5,
		"error":     "sink: broken",
	} {
		if obj[k] != want {
			t.Errorf("field %q = %v, want %v", k, obj[k], want)
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, obj["time"].(string)); err != nil {
		t.Errorf("time field: %v", err)
	}
}

func TestLoggerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(8)
	l := newLogger(t, &buf, "text", "warn", rec)
	l.Debug("dropped")
	l.Info("dropped")
	l.Warn("kept")
	l.Error("kept")
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Errorf("level gate let %d lines through, want 2:\n%s", n, buf.String())
	}
	if d := dumpOf(t, rec); d.Total != 2 {
		t.Errorf("recorder kept %d records under the gate, want 2", d.Total)
	}
}

// TestParseLevelAndFormat: an empty format and level, as a zero flag set
// passes, mean text at info; names are case-blind; an unknown name is an
// error that lists the flag's choices.
func TestParseLevelAndFormat(t *testing.T) {
	var buf bytes.Buffer
	l := newLogger(t, &buf, "", "", nil)
	l.Debug("dropped")
	l.Info("kept", "n", 1)
	if got := untimed(t, buf.String()); got != "level=INFO msg=kept n=1\n" {
		t.Errorf("default line = %q", got)
	}
	for _, tc := range []struct{ format, level, want string }{
		{"text", "loud", "want debug, info, warn, or error"},
		{"text", "warning", "want debug, info, warn, or error"},
		{"xml", "info", "want text or json"},
	} {
		_, err := NewLogger(&bytes.Buffer{}, tc.format, tc.level, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewLogger(format %q, level %q) err = %v, want %q", tc.format, tc.level, err, tc.want)
		}
	}
	for _, ok := range []struct{ format, level string }{
		{"logfmt", "debug"}, {"JSON", "ERROR"}, {"text", "Warn"},
	} {
		if _, err := NewLogger(&bytes.Buffer{}, ok.format, ok.level, nil); err != nil {
			t.Errorf("NewLogger(format %q, level %q): %v", ok.format, ok.level, err)
		}
	}
}

// TestLoggerSubComponentNesting: a component under a component joins
// the names with a dot, in the text line, the JSON line and the ring
// alike.
func TestLoggerSubComponentNesting(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		var buf bytes.Buffer
		rec := NewRecorder(4)
		l := newLogger(t, &buf, format, "info", rec).With("component", "shears").With("component", "scan")
		l.Info("m")
		line := buf.String()
		if format == "text" && !strings.HasSuffix(line, " component=shears.scan\n") {
			t.Errorf("text line %q lacks the dotted component", line)
		}
		if format == "json" && !strings.Contains(line, `"component":"shears.scan"`) {
			t.Errorf("JSON line %q lacks the dotted component", line)
		}
		if strings.Count(line, "component") != 1 {
			t.Errorf("%s line %q repeats the component", format, line)
		}
		if d := dumpOf(t, rec); len(d.Events) != 1 || d.Events[0]["component"] != "shears.scan" {
			t.Errorf("%s: ring = %+v, want one shears.scan record", format, d.Events)
		}
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(2)
	l := newLogger(t, &bytes.Buffer{}, "text", "info", rec).With("component", "engine")
	for _, round := range []int{16, 32, 48} {
		l.Info("checkpoint", "round", round)
	}
	d := dumpOf(t, rec)
	if d.Total != 3 || d.Dropped != 1 || len(d.Events) != 2 {
		t.Fatalf("dump total=%d dropped=%d events=%d, want 3/1/2", d.Total, d.Dropped, len(d.Events))
	}
	for i, want := range []float64{32, 48} {
		if got := d.Events[i]["round"]; got != want {
			t.Errorf("events[%d] round = %v, want %v (oldest first)", i, got, want)
		}
	}
}

// TestRecorderWriteJSON pins the /debug/events body: one object with
// total, dropped and the events, each a JSON log record keeping level,
// msg and component; an empty ring dumps an empty list.
func TestRecorderWriteJSON(t *testing.T) {
	var empty bytes.Buffer
	if err := NewRecorder(2).WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(strings.Fields(empty.String()), ""); got != `{"total":0,"dropped":0,"events":[]}` {
		t.Errorf("empty dump = %s", got)
	}
	rec := NewRecorder(2)
	newLogger(t, &bytes.Buffer{}, "text", "info", rec).With("component", "engine").Info("checkpoint", "round", 16)
	d := dumpOf(t, rec)
	if d.Total != 1 || d.Dropped != 0 || len(d.Events) != 1 {
		t.Fatalf("dump total=%d dropped=%d events=%d, want 1/0/1", d.Total, d.Dropped, len(d.Events))
	}
	e := d.Events[0]
	if e["level"] != "INFO" || e["msg"] != "checkpoint" || e["component"] != "engine" || e["round"] != float64(16) {
		t.Errorf("event = %v", e)
	}
	if _, err := time.Parse(time.RFC3339Nano, fmt.Sprint(e["time"])); err != nil {
		t.Errorf("event time: %v", err)
	}
}

// TestRecorderKeepsValuesAsLogged: the ring encodes a record when it is
// logged, so a slice the caller changes afterwards dumps as it was.
func TestRecorderKeepsValuesAsLogged(t *testing.T) {
	rec := NewRecorder(4)
	l := newLogger(t, &bytes.Buffer{}, "text", "info", rec)
	v := []int{1, 2}
	l.Info("m", "v", v)
	v[0] = 99
	d := dumpOf(t, rec)
	if got := fmt.Sprint(d.Events[0]["v"]); got != "[1 2]" {
		t.Errorf("dumped v = %s, want [1 2] as logged", got)
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(64)
	l := newLogger(t, &buf, "text", "info", rec)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := l.With("component", fmt.Sprintf("g%d", g))
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
		if !strings.HasPrefix(line, "time=") || !strings.Contains(line, "msg=tick") {
			t.Fatalf("torn log line: %q", line)
		}
	}
	if d := dumpOf(t, rec); d.Total != 400 || len(d.Events) != 64 {
		t.Errorf("recorder saw %d records and kept %d, want 400 and 64", d.Total, len(d.Events))
	}
}

// TestLoggerNilInert: Discard, which a nil Log option stands for, drops
// everything and survives With; a logger without a recorder logs.
func TestLoggerNilInert(t *testing.T) {
	l := Discard.With("component", "x")
	l.Error("x", "k", 1)
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Error("Discard is enabled")
	}
	var buf bytes.Buffer
	newLogger(t, &buf, "json", "info", nil).Info("m")
	if !strings.Contains(buf.String(), `"msg":"m"`) {
		t.Errorf("logger without a recorder wrote %q", buf.String())
	}
}

// TestLoggerNormalizesValues: an error logs as its message and a
// duration as its String in text and as nanoseconds in JSON, in the
// ring too.
func TestLoggerNormalizesValues(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(2)
	newLogger(t, &buf, "text", "info", rec).Info("m", "err", fmt.Errorf("sink: broken"), "took", 1500*time.Millisecond)
	if got := untimed(t, buf.String()); got != `level=INFO msg=m err="sink: broken" took=1.5s`+"\n" {
		t.Errorf("text line = %q", got)
	}
	e := dumpOf(t, rec).Events[0]
	if e["err"] != "sink: broken" || e["took"] != float64(1500*time.Millisecond) {
		t.Errorf("ring record = %v", e)
	}
}

// TestLoggerOddKVKept: a trailing value without a key is kept, under
// slog's !BADKEY.
func TestLoggerOddKVKept(t *testing.T) {
	var buf bytes.Buffer
	kv := []any{"k1", 1, "dangling"} // a slice, so vet lets the odd list through
	newLogger(t, &buf, "text", "info", nil).Info("m", kv...)
	if !strings.Contains(buf.String(), "k1=1 !BADKEY=dangling") {
		t.Errorf("odd trailing value dropped: %q", buf.String())
	}
}
