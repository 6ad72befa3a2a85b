package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCacheCoalesce(t *testing.T) {
	c := newCache(nil)
	block := make(chan struct{})
	var fills atomic.Int32
	fill := func() (*response, error) {
		fills.Add(1)
		<-block
		return &response{status: 200, body: []byte("x")}, nil
	}

	// Leader enters the fill and blocks; followers must wait on it, not
	// run their own.
	const followers = 5
	var wg sync.WaitGroup
	var waitedCount atomic.Int32
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err, hit, waited := c.do("k", func() (*response, error) {
			close(started)
			return fill()
		})
		if err != nil || hit || waited || string(resp.body) != "x" {
			t.Errorf("leader: resp=%v err=%v hit=%v waited=%v", resp, err, hit, waited)
		}
	}()
	<-started
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err, hit, waited := c.do("k", fill)
			if err != nil || string(resp.body) != "x" {
				t.Errorf("follower: resp=%v err=%v", resp, err)
			}
			if waited && !hit {
				waitedCount.Add(1)
			}
		}()
	}
	// Release the leader only once every follower is parked in the
	// in-flight wait: one that arrived after the fill would run its own.
	awaitParked(t, followers)
	close(block)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
	if got := waitedCount.Load(); got != followers {
		t.Fatalf("%d of %d followers waited on the fill", got, followers)
	}

	// The coalesced fill was the key's first: its body is not kept, so
	// the next request fills again, and that second fill is kept.
	for i, want := range []struct {
		hit   bool
		fills int32
	}{{false, 2}, {true, 2}} {
		resp, err, hit, _ := c.do("k", fill)
		if err != nil || hit != want.hit || string(resp.body) != "x" || fills.Load() != want.fills {
			t.Fatalf("request %d after the coalesced fill: body=%q err=%v hit=%v fills=%d, want hit=%v fills=%d",
				i+2, resp.body, err, hit, fills.Load(), want.hit, want.fills)
		}
	}
}

// awaitParked waits until n goroutines are blocked receiving inside
// cache.do — coalesced followers waiting on an in-flight fill.
func awaitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, frames, _ := strings.Cut(g, "\n")
			for _, line := range strings.Split(frames, "\n") {
				if strings.HasPrefix(line, "runtime.") || strings.HasPrefix(line, "\t") {
					continue
				}
				if strings.Contains(header, "[chan receive") && strings.HasPrefix(line, "repro/internal/serve.(*cache).do(") {
					parked++
				}
				break
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d followers parked on the in-flight fill", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newCache(nil)
	boom := errors.New("boom")
	calls := 0
	if _, err, _, _ := c.do("k", func() (*response, error) { calls++; return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	resp, err, hit, _ := c.do("k", func() (*response, error) { calls++; return &response{body: []byte("ok")}, nil })
	if err != nil || hit || string(resp.body) != "ok" {
		t.Fatalf("retry after error: resp=%v err=%v hit=%v", resp, err, hit)
	}
	if calls != 2 {
		t.Fatalf("fill calls = %d, want 2 (errors must not cache)", calls)
	}
}

// TestCacheInvalidate: a key's second fill is kept and its third
// request hits; invalidation drops the kept body and forgets the keys
// filled once, so after it the key again takes two fills to be kept.
func TestCacheInvalidate(t *testing.T) {
	c := newCache(nil)
	calls := 0
	fill := func() (*response, error) { calls++; return &response{body: []byte("v")}, nil }
	wantHits := func(hits ...bool) {
		t.Helper()
		for i, want := range hits {
			if resp, _, hit, _ := c.do("k", fill); hit != want || string(resp.body) != "v" {
				t.Fatalf("request %d: hit=%v body=%q, want hit=%v", i+1, hit, resp.body, want)
			}
		}
	}
	wantHits(false, false, true)
	if calls != 2 {
		t.Fatalf("fill calls = %d, want 2", calls)
	}
	c.invalidate()
	for i := range c.shards {
		if c.shards[i].seen != [seenSlots]uint32{} {
			t.Fatalf("shard %d remembers keys filled before the invalidation", i)
		}
	}
	wantHits(false, false, true)
	if calls != 4 {
		t.Fatalf("fill calls = %d, want 4", calls)
	}
}

// TestCacheByteBudget: a shard keeps at most shardBudget body bytes of
// finished entries. The entry that would push it over drops every
// finished one first — counted in the evicted-bytes counter — while an
// in-flight fill on the same shard stays, still coalescing. Keys filled
// once are never kept, so they never count against the budget, and a
// key whose slot another key took over is filled again and kept on its
// next fill, with its own bytes.
func TestCacheByteBudget(t *testing.T) {
	evicted := obs.NewRegistry().Counter("evicted_bytes_total", "")
	c := newCache(evicted)
	// Keys that all land on one shard.
	sh, _ := c.shard("k0")
	var keys []string
	for i := 0; len(keys) < 12; i++ {
		k := fmt.Sprintf("k%d", i)
		if s, _ := c.shard(k); s == sh {
			keys = append(keys, k)
		}
	}
	body := make([]byte, shardBudget/4+1) // the fourth does not fit
	fill := func() (*response, error) { return &response{body: body}, nil }

	// Distinct keys, each filled once, many budgets' worth: none is kept.
	for i := 0; i < 64; i++ {
		if _, _, hit, _ := c.do(fmt.Sprintf("once%d", i), fill); hit {
			t.Fatal("a key filled once hit")
		}
	}
	if got, kept := evicted.Value(), c.bytes(); got != 0 || kept != 0 {
		t.Fatalf("keys filled once: %d bytes evicted, %d kept", got, kept)
	}

	// keys[0] is filled once, then its second fill parks until the
	// eviction is over.
	c.do(keys[0], fill)
	release, entered := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.do(keys[0], func() (*response, error) {
			close(entered)
			<-release
			return &response{body: []byte("slow")}, nil
		})
	}()
	<-entered

	for _, k := range keys[1:4] {
		c.do(k, fill)
		c.do(k, fill)
	}
	if got, kept := evicted.Value(), c.bytes(); got != 0 || kept != int64(3*len(body)) {
		t.Fatalf("evicted %d bytes under budget, kept %d", got, kept)
	}
	c.do(keys[4], fill)
	if got := evicted.Value(); got != 0 {
		t.Fatalf("a first fill evicted %d bytes", got)
	}
	c.do(keys[4], fill) // kept, and over budget: keys[1..3] go
	if got, want := evicted.Value(), uint64(3*len(body)); got != want {
		t.Fatalf("evicted %d bytes, want %d", got, want)
	}
	sh.mu.Lock()
	for _, k := range keys[1:4] {
		if _, ok := sh.m[k]; ok {
			t.Errorf("%s survived the eviction", k)
		}
	}
	sh.mu.Unlock()
	if _, _, hit, _ := c.do(keys[4], fill); !hit {
		t.Fatal("the entry that triggered the eviction was dropped with it")
	}

	// The parked fill finishes into the entry it started: still in the
	// map, and its key's second fill, so later requests hit it instead of
	// filling again.
	close(release)
	<-done
	if resp, _, hit, _ := c.do(keys[0], fill); !hit || string(resp.body) != "slow" {
		t.Fatal("the in-flight entry was evicted with the finished ones")
	}
	if got, want := c.bytes(), int64(len(body)+len("slow")); got != want {
		t.Fatalf("kept %d bytes, want %d", got, want)
	}

	// Two keys of one slot: the second's first fill takes the slot, so
	// the first's next fill is not kept but takes it back, and the one
	// after is kept and then hit, with its own body.
	a, b := sameSlot(c)
	body2 := []byte("a's body")
	fillA := func() (*response, error) { return &response{body: body2}, nil }
	before := c.bytes()
	c.do(a, fillA)
	c.do(b, fill)
	for i, want := range []bool{false, false, true} {
		if resp, _, hit, _ := c.do(a, fillA); hit != want || !bytes.Equal(resp.body, body2) {
			t.Fatalf("request %d for a key whose slot was taken: hit=%v body=%q, want hit=%v", i+2, hit, resp.body, want)
		}
	}
	if got, want := c.bytes(), before+int64(len(body2)); got != want {
		t.Fatalf("kept %d bytes, want %d", got, want)
	}
}

// sameSlot finds two keys whose hashes differ but share a shard and a
// slot of its seen table.
func sameSlot(c *cache) (a, b string) {
	bySlot := make(map[uint32]string)
	for i := 0; ; i++ {
		k := fmt.Sprintf("slot%d", i)
		_, h := c.shard(k)
		at := h % (cacheShards * seenSlots) // the shard, then the slot
		if prev, ok := bySlot[at]; ok {
			if _, ph := c.shard(prev); ph != h {
				return prev, k
			}
		}
		bySlot[at] = k
	}
}
