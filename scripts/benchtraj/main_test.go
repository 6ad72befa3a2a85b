package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{7, 1, 3, 5, 9})
	if q1 != 3 || med != 5 || q3 != 7 {
		t.Fatalf("quartiles %v %v %v, want 3 5 7", q1, med, q3)
	}
	// Type 7 between order statistics: positions 0.75, 1.5 and 2.25.
	if q1, med, q3 := quartiles([]float64{4, 1, 3, 2}); q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Fatalf("quartiles %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
}

// TestJudgeClaim: a claim needs nine wins in ten, ties counting for
// neither side, and a median gap wider than the base's quartile spread.
func TestJudgeClaim(t *testing.T) {
	rss := spec{Name: "peak_rss_mb", Better: "lower", Bound: 0.2}
	base := []float64{73, 73.2, 73.4, 73.6, 73.3, 73.1, 73.5, 73.2, 73.4, 73.3}
	head := []float64{52, 52.5, 51, 52, 51.5, 52, 51.8, 52.2, 51.9, 80}
	v := judge(rss, base, head, true)
	if !v.ok || v.wins != 9 || v.change > -0.25 {
		t.Fatalf("nine wins, median -29%%: %+v", v)
	}
	head[0] = base[0] // a tie is no win: eight of ten
	if v := judge(rss, base, head, true); v.ok || v.wins != 8 || !strings.Contains(v.verdict, "NOT met") {
		t.Fatalf("eight wins and a tie: %+v", v)
	}
	// Every pair won, but by less than the base's quartile spread.
	wide := []float64{70, 76, 70, 76, 70, 76, 70, 76, 70, 76}
	narrow := make([]float64, len(wide))
	for i, b := range wide {
		narrow[i] = b - 1
	}
	if v := judge(rss, wide, narrow, true); v.ok || v.wins != 10 {
		t.Fatalf("ten wins inside the spread: %+v", v)
	}
}

// TestJudgeBound: an unclaimed metric passes while its median is worse
// by no more than the bound, in either direction of better.
func TestJudgeBound(t *testing.T) {
	lower := spec{Name: "op_ms", Better: "lower", Bound: 0.25}
	if v := judge(lower, []float64{1, 1, 1}, []float64{1.2, 1.2, 1.2}, false); !v.ok || math.Abs(v.change-0.2) > 1e-12 {
		t.Fatalf("+20%% under a 25%% bound: %+v", v)
	}
	if v := judge(lower, []float64{1, 1, 1}, []float64{1.3, 1.3, 1.3}, false); v.ok || !strings.Contains(v.verdict, "REGRESSION") {
		t.Fatalf("+30%% past a 25%% bound: %+v", v)
	}
	higher := spec{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	if v := judge(higher, []float64{100, 100}, []float64{70, 70}, false); v.ok || math.Abs(v.change-0.3) > 1e-12 {
		t.Fatalf("throughput -30%%: %+v", v)
	}
	if v := judge(higher, []float64{100, 100}, []float64{130, 130}, false); !v.ok || v.wins != 2 || v.change >= 0 {
		t.Fatalf("throughput +30%%: %+v", v)
	}
	zero := spec{Name: "disk_bytes_per_sample", Better: "lower", Bound: 0.01}
	if v := judge(zero, []float64{0, 0}, []float64{1, 1}, false); v.ok || !math.IsInf(v.change, 1) {
		t.Fatalf("from zero: %+v", v)
	}
	if v := judge(zero, []float64{0, 0}, []float64{0, 0}, false); !v.ok || v.change != 0 || v.wins != 0 {
		t.Fatalf("zero to zero: %+v", v)
	}
}

func TestFailures(t *testing.T) {
	ok := result{Correct: true, Attempted: 100}
	if msg := failures([]result{ok}, []result{ok}); msg != "" {
		t.Fatalf("no failures: %q", msg)
	}
	if msg := failures([]result{ok}, []result{{Correct: false, Attempted: 100}}); msg == "" {
		t.Fatal("an incorrect head run passed")
	}
	if msg := failures([]result{{Correct: true, Attempted: 100, Failed: 1}}, []result{{Correct: true, Attempted: 50, Failed: 1}}); msg == "" {
		t.Fatal("a larger failed share passed")
	}
	if msg := failures([]result{{Correct: true, Attempted: 100, Failed: 2}}, []result{{Correct: true, Attempted: 100, Failed: 1}}); msg != "" {
		t.Fatalf("fewer failures: %q", msg)
	}
}

// TestVerify: the trajectory only appends entries to the committed
// file, each with its stamp, the record seed, end-to-end names that
// BENCHMARK.json declares and ordered quartiles.
func TestVerify(t *testing.T) {
	c := contract{EndToEnd: []spec{{Name: "peak_rss_mb"}}}
	c.Workloads = append(c.Workloads, struct{ Name string }{"paper_run"})
	one := `{"tree":"t1","commit":"c1","go":"go1.24.0","goarch":"amd64","gomaxprocs":2,"numcpu":2,"seed":1,"runs":3,` +
		`"workloads":{"paper_run":{"peak_rss_mb":{"median":35,"q1":34,"q3":36}}}}`
	two := strings.Replace(one, `"t1"`, `"t2"`, 1)
	file := func(entries ...string) []byte { return []byte("[" + strings.Join(entries, ",\n") + "]\n") }
	for _, tc := range []struct {
		name     string
		cur, old []byte
		want     string // "" passes
	}{
		{"first entry, nothing committed", file(one), nil, ""},
		{"one appended", file(one, two), file(one), ""},
		{"unchanged", file(one), file(one), ""},
		{"a per-layer metric", file(strings.Replace(one, "peak_rss_mb", "tix.build_ms", 1)), nil, "no metric"},
		{"another seed", file(strings.Replace(one, `"seed":1`, `"seed":2`, 1)), nil, "seed is not 1"},
		{"an entry removed", file(two), file(one, two), "only appended"},
		{"an entry edited", file(strings.Replace(one, `"median":35`, `"median":34.5`, 1)), file(one), "never edited"},
		{"an undeclared metric", file(strings.Replace(one, "peak_rss_mb", "rss", 1)), nil, "no metric"},
		{"an undeclared workload", file(strings.Replace(one, "paper_run", "paper", 1)), nil, "no workload"},
		{"an unknown field", file(strings.Replace(one, `"seed"`, `"sed"`, 1)), nil, "unknown field"},
		{"no stamp", file(strings.Replace(one, `"go1.24.0"`, `""`, 1)), nil, "stamp"},
		{"unordered quartiles", file(strings.Replace(one, `"q1":34`, `"q1":35.5`, 1)), nil, "q1 <= median"},
		{"not an array", []byte(one), nil, "cannot unmarshal"},
	} {
		err := verify(c, tc.cur, tc.old)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}
