package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getBody(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestStatusMuxServesAllEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo_total", "A demo counter.").Add(7)
	rec := NewRecorder(8)
	l, err := NewLogger(io.Discard, "", "", rec)
	if err != nil {
		t.Fatal(err)
	}
	l.With("component", "test").Info("hello", "n", 1)
	type prog struct {
		Round int `json:"round"`
	}
	mux := NewStatusMux(reg, rec, func() any { return prog{Round: 42} })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	code, body, ctype := getBody(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "demo_total 7") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}

	code, body, ctype = getBody(t, srv, "/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events = %d", code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/events content type %q", ctype)
	}
	var dump struct {
		Total  uint64           `json:"total"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/events body: %v\n%s", err, body)
	}
	if dump.Total != 1 || len(dump.Events) != 1 || dump.Events[0]["msg"] != "hello" {
		t.Errorf("/debug/events dump = %+v", dump)
	}

	code, body, _ = getBody(t, srv, "/api/v1/progress")
	if code != http.StatusOK {
		t.Fatalf("/api/v1/progress = %d", code)
	}
	var p prog
	if err := json.Unmarshal([]byte(body), &p); err != nil || p.Round != 42 {
		t.Errorf("/api/v1/progress = %q (err %v)", body, err)
	}
}

func TestStatusMuxNilPieces(t *testing.T) {
	srv := httptest.NewServer(NewStatusMux(nil, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/events", "/api/v1/progress"} {
		code, _, _ := getBody(t, srv, path)
		if code != http.StatusNotFound {
			t.Errorf("%s with nil pieces = %d, want 404", path, code)
		}
	}
}
