package main

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/obs"
)

// keepMemoryLimit restores the process's memory limit when t ends, so a
// test that starts the bound leaves none behind for the next.
func keepMemoryLimit(t *testing.T) {
	old := debug.SetMemoryLimit(-1)
	t.Cleanup(func() { debug.SetMemoryLimit(old) })
}

// TestMemoryLimitDerivation: the limit is limitHeadroom times the live
// heap plus the memory outside the heap, and never below what the
// runtime already uses — what the live heap occupies, its spans'
// unused space and the memory outside the heap — plus limitMargin.
func TestMemoryLimitDerivation(t *testing.T) {
	const mib = 1 << 20
	headroom := float64(limitHeadroom) // a variable: the product is no integer constant
	for _, c := range []struct {
		name string
		s    memSample
		want int64
	}{
		{"headroom", memSample{live: 30 * mib, nonHeap: 6 * mib, unused: 2 * mib}, int64(headroom * 36 * mib)},
		{"floor at current use", memSample{live: 4 * mib, nonHeap: 1 * mib, unused: 2 * mib}, 7*mib + limitMargin},
		{"empty heap", memSample{}, limitMargin},
	} {
		if got := memoryLimit(c.s); got != c.want {
			t.Errorf("%s: limit %d, want %d", c.name, got, c.want)
		}
	}
}

// TestMemBoundSetsTheLimit: without GOMEMLIMIT the bound puts the
// derived limit in force — above the live heap — and exports it beside
// the live heap and the heap goal.
func TestMemBoundSetsTheLimit(t *testing.T) {
	keepMemoryLimit(t)
	t.Setenv("GOMEMLIMIT", "")
	debug.SetMemoryLimit(1 << 50)
	g := newMemGauges(obs.NewRegistry())
	startMemBound(g).Close()
	limit := debug.SetMemoryLimit(-1)
	if live := int64(g.live.Value()); limit == 1<<50 || limit <= live || limit > 2*live+64<<20 {
		t.Fatalf("limit in force %d over a live heap of %d", limit, live)
	}
	if g.limit.Value() != float64(limit) || g.live.Value() <= 0 || g.goal.Value() <= 0 {
		t.Fatalf("gauges live %v, goal %v, limit %v; limit in force %d", g.live.Value(), g.goal.Value(), g.limit.Value(), limit)
	}
}

// TestMemBoundLeavesGOMEMLIMIT: with GOMEMLIMIT in the environment the
// limit is the operator's: the bound leaves it untouched and reports it.
func TestMemBoundLeavesGOMEMLIMIT(t *testing.T) {
	keepMemoryLimit(t)
	t.Setenv("GOMEMLIMIT", "1TiB")
	debug.SetMemoryLimit(1 << 40)
	g := newMemGauges(obs.NewRegistry())
	startMemBound(g).Close()
	if limit := debug.SetMemoryLimit(-1); limit != 1<<40 {
		t.Fatalf("the bound changed an operator's limit to %d", limit)
	}
	if g.limit.Value() != 1<<40 {
		t.Fatalf("limit gauge %v, limit in force %d", g.limit.Value(), int64(1<<40))
	}
}

// TestMemBoundFollowsCollections: after a collection the bound derives
// the limit again, from the live heap that collection marked.
func TestMemBoundFollowsCollections(t *testing.T) {
	keepMemoryLimit(t)
	t.Setenv("GOMEMLIMIT", "")
	b := startMemBound(newMemGauges(obs.NewRegistry()))
	defer b.Close()
	debug.SetMemoryLimit(1 << 50)
	for deadline := time.Now().Add(10 * time.Second); debug.SetMemoryLimit(-1) == 1<<50; {
		if time.Now().After(deadline) {
			t.Fatal("no update followed ten seconds of collections")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
