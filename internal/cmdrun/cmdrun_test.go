package cmdrun

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFlags pins the telemetry flags' names, defaults and usage strings:
// they are the ones shears and figures each registered before they
// shared them, and atlasd takes the log pair alone.
func TestFlags(t *testing.T) {
	want := map[string][2]string{
		"log-format":  {"text", "structured log encoding: text (logfmt) or json"},
		"log-level":   {"info", "minimum log level: debug, info, warn, or error"},
		"cpuprofile":  {"", "write a CPU profile of the run to this file"},
		"memprofile":  {"", "write an end-of-run heap profile to this file"},
		"status-addr": {"", "serve live run status (/metrics, /debug/events, /api/v1/progress) on this address"},
	}
	check := func(fs *flag.FlagSet, names ...string) {
		t.Helper()
		var got []string
		fs.VisitAll(func(f *flag.Flag) {
			got = append(got, f.Name)
			if w := want[f.Name]; f.DefValue != w[0] || f.Usage != w[1] {
				t.Errorf("-%s: default %q usage %q, want %q %q", f.Name, f.DefValue, f.Usage, w[0], w[1])
			}
		})
		sort.Strings(names)
		if strings.Join(got, " ") != strings.Join(names, " ") {
			t.Errorf("registered %v, want %v", got, names)
		}
	}
	var f Flags
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	f.Register(fs)
	check(fs, "log-format", "log-level", "cpuprofile", "memprofile", "status-addr")
	fs = flag.NewFlagSet("log", flag.ContinueOnError)
	f.RegisterLog(fs)
	check(fs, "log-format", "log-level")

	for _, bad := range []Flags{{LogLevel: "loud"}, {LogFormat: "xml"}} {
		if _, err := Start(Config{Flags: bad, LogDst: io.Discard}); err == nil || !strings.Contains(err.Error(), "unknown log") {
			t.Errorf("Start(%+v) err = %v, want the log flag refused", bad, err)
		}
	}
}

// TestStatusServer polls a run's status server while the run is still
// executing — a goroutine keeps moving the snapshot and scan counters —
// and decodes the shared progress blocks beside the command's own; once
// the run finishes, the server is gone.
func TestStatusServer(t *testing.T) {
	ready := make(chan string, 1)
	r, err := Start(Config{
		Flags: Flags{StatusAddr: "127.0.0.1:0"}, Binary: "test", Events: 8,
		LogDst: io.Discard, StatusReady: func(addr string) { ready <- addr },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Serve(func(p map[string]any) { p["figure"] = "6" }); err != nil {
		t.Fatal(err)
	}
	addr := <-ready
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return b
	}

	r.SnapMetrics().Hits.Inc()
	r.ScanMetrics().Scans.Inc()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.SnapMetrics().Misses.Inc()
				r.ScanMetrics().Samples.Add(10)
				r.Log().Info("working")
			}
		}
	}()
	var p struct {
		RunID         string  `json:"run_id"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Figure        string  `json:"figure"`
		Snapshot      struct {
			Hits, Misses, Invalidations, Writes uint64
		} `json:"snapshot"`
		Scan struct {
			Scans         uint64  `json:"scans"`
			Samples       uint64  `json:"samples"`
			SamplesPerSec float64 `json:"samples_per_sec"`
		} `json:"scan"`
	}
	for i := 0; i < 3; i++ {
		body := get("/api/v1/progress")
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(body, &keys); err != nil {
			t.Fatalf("progress is not JSON: %v\n%s", err, body)
		}
		var names []string
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		if got := strings.Join(names, " "); got != "figure run_id scan snapshot uptime_seconds" {
			t.Errorf("progress keys %q", got)
		}
		var snapKeys map[string]json.RawMessage
		if err := json.Unmarshal(keys["snapshot"], &snapKeys); err != nil || len(snapKeys) != 4 || snapKeys["invalidations"] == nil {
			t.Errorf("snapshot block %s (err %v)", keys["snapshot"], err)
		}
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
	}
	if p.RunID != r.Manifest().RunID || p.Figure != "6" || p.UptimeSeconds <= 0 {
		t.Errorf("progress = %+v", p)
	}
	if p.Snapshot.Hits != 1 || p.Scan.Scans != 1 {
		t.Errorf("progress counters: snapshot %+v scan %+v, want 1 hit and 1 scan", p.Snapshot, p.Scan)
	}
	if !strings.Contains(string(get("/metrics")), "snap_hits_total 1\n") {
		t.Error("/metrics lacks the run's snapshot instruments")
	}
	var events struct {
		Events []struct {
			Component string `json:"component"`
			Msg       string `json:"msg"`
		} `json:"events"`
	}
	if err := json.Unmarshal(get("/debug/events"), &events); err != nil || len(events.Events) == 0 || events.Events[0].Component != "test" {
		t.Errorf("/debug/events = %+v (err %v)", events, err)
	}
	close(stop)
	wg.Wait()

	if err := r.Finish(nil, nil); err != nil {
		t.Fatal(err)
	}
	c := http.Client{Timeout: 5 * time.Second}
	if resp, err := c.Get("http://" + addr + "/metrics"); err == nil {
		resp.Body.Close()
		t.Error("status server still serving after Finish")
	}
}

// TestStatusServerClosesStalledRequest: a status client that sends half
// a request line and stalls is cut off once the header bound passes, so
// it cannot hold a connection for the rest of the run.
func TestStatusServerClosesStalledRequest(t *testing.T) {
	ready := make(chan string, 1)
	r, err := Start(Config{
		Flags: Flags{StatusAddr: "127.0.0.1:0"}, Binary: "test",
		LogDst: io.Discard, StatusReady: func(addr string) { ready <- addr },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Finish(nil, nil)
	if err := r.Serve(func(map[string]any) {}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", <-ready)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HT"); err != nil {
		t.Fatal(err)
	}
	bound := r.srv.ReadHeaderTimeout
	if bound <= 0 {
		t.Fatal("status server has no header bound")
	}
	conn.SetReadDeadline(time.Now().Add(bound + 10*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("stalled request still open past the %v header bound: %v", bound, err)
	}
}

// TestFinish pins the teardown: the manifest holds the root's stages and
// whatever the before hook adds, lands in Dir only when Dir exists, the
// profiles are written on a failed run too, and the run's own error
// wins over a later step's.
func TestFinish(t *testing.T) {
	dir := t.TempDir()
	heap, cpu := filepath.Join(dir, "heap.prof"), filepath.Join(dir, "cpu.prof")
	r, err := Start(Config{
		Flags: Flags{CPUProfile: cpu, MemProfile: heap}, Binary: "test",
		Dir: dir, Manifest: "run.test.json", LogDst: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Span().Child("stage").End()
	runErr, hookErr := errors.New("render failed"), errors.New("hook failed")
	err = r.Finish(runErr, func(d obs.SpanDump) error {
		if d.Name != "test.run" || len(r.Manifest().Stages) != 1 {
			t.Errorf("hook saw root %q, manifest stages %+v", d.Name, r.Manifest().Stages)
		}
		if _, err := os.Stat(filepath.Join(dir, "run.test.json")); err == nil {
			t.Error("manifest written before the hook ran")
		}
		r.Manifest().Workers = 3
		return hookErr
	})
	if err != runErr {
		t.Errorf("Finish = %v, want the run's own error", err)
	}
	m, err := obs.ReadRunManifest(filepath.Join(dir, "run.test.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Binary != "test" || m.Workers != 3 || len(m.Stages) != 1 || m.Stages[0].Name != "stage" || m.DurationMs < 0 {
		t.Errorf("manifest = %+v", m)
	}
	for _, path := range []string{heap, cpu} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written by a failed run (stat: %v)", filepath.Base(path), err)
		}
	}

	absent := filepath.Join(dir, "absent")
	r, err = Start(Config{Binary: "test", Dir: absent, Manifest: "run.test.json", LogDst: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(nil, func(obs.SpanDump) error { return hookErr }); err != hookErr {
		t.Errorf("Finish = %v, want the hook's error", err)
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Errorf("a run without its directory wrote a manifest (stat: %v)", err)
	}
}
