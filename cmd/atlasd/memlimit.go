package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"

	"repro/internal/obs"
)

// The GC's headroom at the default GOGC is the live heap itself, so
// every byte of resident serving state would cost about two in peak RSS.
// With -serve-data, atlasd bounds that headroom instead: once the first
// snapshot is published, and then after every collection, it sets a
// soft memory limit of limitHeadroom × (live heap + the runtime's
// memory outside the heap), never below what the runtime already uses
// plus limitMargin. GOGC keeps its default under the limit, so a fill
// that briefly outgrows it is slowed by the runtime's GC CPU cap, never
// failed. A GOMEMLIMIT in atlasd's environment is the operator's limit,
// and atlasd leaves it alone. The bound lives here and not in
// serve.Engine because the limit is process-wide: a program that embeds
// engines, as the benchmark does, would bound itself.
//
// What the runtime already uses is what the live heap occupies: the
// objects the last collection marked live, the unused space in their
// spans, and the memory outside the heap. Garbage not yet swept and
// free pages do not count: sweeping and the scavenger reclaim them with
// no further collection, and a limit below them is what returns them
// to the OS. Counted, they would carry each cycle's peak into the next
// limit: an update right after a collection sees the whole goal still
// unswept, so the limit rose by each cycle's overshoot (a nine-month
// store's heap goal reached 1.5 × its live heap).
const (
	limitHeadroom = 1.3
	limitMargin   = 1 << 20
)

// memSample is one reading of the runtime's memory metrics.
type memSample struct {
	live  uint64 // /gc/heap/live: marked live by the last GC
	goal  uint64 // /gc/heap/goal: where the next GC ends
	limit int64  // /gc/gomemlimit: the memory limit in force
	// nonHeap is mapped memory outside the heap's object classes
	// (objects, unused, free, released): stacks, runtime metadata,
	// profiling buckets and the rest, which no GC headroom scales.
	nonHeap uint64
	// unused is the space in the heap's spans that holds no object.
	unused uint64
}

var memMetrics = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
	"/gc/gomemlimit:bytes",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/released:bytes",
}

// readMem reads the runtime's memory metrics; it stops no goroutine.
func readMem() memSample {
	var s [8]metrics.Sample
	for i, name := range memMetrics {
		s[i].Name = name
	}
	metrics.Read(s[:])
	v := func(i int) uint64 { return s[i].Value.Uint64() }
	total, objects, unused, free, released := v(3), v(4), v(5), v(6), v(7)
	return memSample{
		live: v(0), goal: v(1), limit: int64(v(2)),
		nonHeap: total - objects - unused - free - released,
		unused:  unused,
	}
}

// memoryLimit derives the soft memory limit from one sample.
func memoryLimit(s memSample) int64 {
	return int64(max(uint64(limitHeadroom*float64(s.live+s.nonHeap)), s.live+s.unused+s.nonHeap+limitMargin))
}

// memGauges exports a sample on /metrics.
type memGauges struct {
	live, goal, limit *obs.Gauge
}

func newMemGauges(reg *obs.Registry) memGauges {
	return memGauges{
		live:  reg.Gauge("go_gc_heap_live_bytes", "Heap bytes marked live by the last GC."),
		goal:  reg.Gauge("go_gc_heap_goal_bytes", "Heap size at which the current GC cycle ends."),
		limit: reg.Gauge("go_gc_gomemlimit_bytes", "Soft memory limit in force."),
	}
}

// memBound re-derives the memory limit after every collection until
// Close, and exports each sample it takes.
type memBound struct {
	gauges memGauges
	// fixed is set when GOMEMLIMIT was given: the limit is the
	// operator's, and the bound only reports it.
	fixed bool
	// gcs says a collection has finished; one slot, so the finalizer
	// that sends never blocks and a pending update absorbs the next.
	gcs  chan struct{}
	stop chan struct{}
	done chan struct{}
}

// startMemBound collects once and sets the limit, then sets it again
// after every collection. The live heap changes only when a collection
// marks it, so that is when the limit can move; the last collection
// before the first one here ran during the seed fold, before the state
// the first publish built was live. Derived from that, the first limit
// put serve_windows' heap goal at 11 MB over a 13 MB live heap, which
// forced a collection at once; refreshed on the refresher's 500 ms
// cadence instead of per collection, such a limit held, and the
// collector ran 110 times back to back until the next update
// (GODEBUG=gctrace=1 over the benchmark's serve_windows workload).
func startMemBound(gauges memGauges) *memBound {
	b := &memBound{
		gauges: gauges,
		fixed:  os.Getenv("GOMEMLIMIT") != "",
		gcs:    make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	runtime.GC()
	b.update()
	b.watch()
	go b.run()
	return b
}

// gcNote is unreachable as soon as it is made, so its finalizer runs
// once the next collection has finished.
type gcNote struct{ b *memBound }

// watch makes a gcNote whose finalizer signals the bound and makes the
// next, until Close.
func (b *memBound) watch() {
	runtime.SetFinalizer(&gcNote{b}, func(n *gcNote) {
		select {
		case <-n.b.stop:
			return
		default:
		}
		select {
		case n.b.gcs <- struct{}{}:
		default: // an update is already pending
		}
		n.b.watch()
	})
}

func (b *memBound) run() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			return
		case <-b.gcs:
			b.update()
		}
	}
}

// update sets the limit from a fresh sample, unless it is the
// operator's, and exports what is then in force.
func (b *memBound) update() {
	s := readMem()
	if !b.fixed {
		s.limit = memoryLimit(s)
		debug.SetMemoryLimit(s.limit)
	}
	b.gauges.live.Set(float64(s.live))
	b.gauges.goal.Set(float64(s.goal))
	b.gauges.limit.Set(float64(s.limit))
}

// Close stops the updates and returns once the goroutine has exited.
// The last limit set stays in force.
func (b *memBound) Close() {
	close(b.stop)
	<-b.done
}
