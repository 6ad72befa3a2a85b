package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

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
	var wg sync.WaitGroup
	var waitedCount atomic.Int32
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		resp, err, hit, waited := c.do("k", fill)
		if err != nil || hit || waited || string(resp.body) != "x" {
			t.Errorf("leader: resp=%v err=%v hit=%v waited=%v", resp, err, hit, waited)
		}
	}()
	<-started
	for i := 0; i < 5; i++ {
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
	close(block)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}

	// Settled entry: a plain hit, no new fill.
	_, err, hit, _ := c.do("k", fill)
	if err != nil || !hit {
		t.Fatalf("after settle: err=%v hit=%v", err, hit)
	}
	if got := fills.Load(); got != 1 {
		t.Fatalf("settled hit re-ran fill (%d)", got)
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

func TestCacheInvalidate(t *testing.T) {
	c := newCache(nil)
	calls := 0
	fill := func() (*response, error) { calls++; return &response{body: []byte("v")}, nil }
	c.do("k", fill)
	if _, _, hit, _ := c.do("k", fill); !hit {
		t.Fatal("want hit before invalidation")
	}
	c.invalidate()
	if _, _, hit, _ := c.do("k", fill); hit {
		t.Fatal("hit after invalidation")
	}
	if calls != 2 {
		t.Fatalf("fill calls = %d, want 2", calls)
	}
}

// TestCacheByteBudget: a shard keeps at most shardBudget body bytes of
// finished entries. The entry that would push it over drops every
// finished one first — counted in the evicted-bytes counter — while an
// in-flight fill on the same shard stays, still coalescing.
func TestCacheByteBudget(t *testing.T) {
	evicted := obs.NewRegistry().Counter("evicted_bytes_total", "")
	c := newCache(evicted)
	// Keys that all land on one shard.
	sh := c.shard("k0")
	var keys []string
	for i := 0; len(keys) < 12; i++ {
		if k := fmt.Sprintf("k%d", i); c.shard(k) == sh {
			keys = append(keys, k)
		}
	}
	body := make([]byte, shardBudget/4+1) // the fourth does not fit
	fill := func() (*response, error) { return &response{body: body}, nil }

	// An in-flight fill, parked until the eviction is over.
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
	}
	if got := evicted.Value(); got != 0 {
		t.Fatalf("evicted %d bytes under budget", got)
	}
	c.do(keys[4], fill) // over budget: keys[1..3] go
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
	// map, so later requests hit it instead of filling again.
	close(release)
	<-done
	if resp, _, hit, _ := c.do(keys[0], fill); !hit || string(resp.body) != "slow" {
		t.Fatal("the in-flight entry was evicted with the finished ones")
	}
}
