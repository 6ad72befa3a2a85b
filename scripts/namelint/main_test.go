package main

import (
	"os"
	"path/filepath"
	"testing"
)

func lintSource(t *testing.T, src string) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := lintFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

func TestLintFlagsBadNames(t *testing.T) {
	src := `package p

func f(reg *Registry, log *slog.Logger) {
	reg.Counter("good_total", "help")
	reg.Counter("bad-name", "help")
	reg.GaugeVec("ok_gauge", "help", "shard", "bad label")
	log.Info("message with spaces is fine", "good_key", 1, "bad key", 2)
	log.Error("msg", "also_good", "v")
}
`
	if bad := lintSource(t, src); bad != 3 {
		t.Errorf("bad = %d, want 3 (metric name, label, log key)", bad)
	}
}

func TestLintIgnoresNonLogError(t *testing.T) {
	src := `package p

func f(w W) {
	http.Error(w, "bad as_ylo", 400)
	t.Error("this is a test assertion, not a log call")
}
`
	if bad := lintSource(t, src); bad != 0 {
		t.Errorf("bad = %d, want 0", bad)
	}
}
