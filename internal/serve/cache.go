package serve

import (
	"hash/fnv"
	"sync"

	"repro/internal/obs"
)

// response is one finished HTTP payload, immutable once stored: every
// reader serves the same bytes, so a cached figure is byte-identical
// across hits by construction.
type response struct {
	status      int
	contentType string
	etag        string
	body        []byte
}

// cacheShards keeps lock contention off the hot path: a request only
// contends with requests whose keys hash to the same shard.
const cacheShards = 16

// shardBudget bounds the response bodies one shard keeps between
// publishes. Windowed keys are an unbounded space — every repeated
// since/until pair admits a ~100 KB /cdf body — so without a bound the
// cache grows on demand until the next publish; with it the whole cache
// holds at most cacheShards × shardBudget (64 MiB) plus the one body
// that tipped each shard over.
const shardBudget = 4 << 20

// seenSlots sizes each shard's table of keys filled once and not kept: a
// body is kept only on its key's second fill, as most windowed keys are
// asked for once per snapshot and their bodies would never be read.
const seenSlots = 1024

// cache is the sharded read cache with singleflight coalescing. Keys
// embed the snapshot fingerprint, so an entry can never serve bytes
// from a different snapshot than its key names; invalidation on
// snapshot advance and eviction over the byte budget exist to bound
// memory and re-arm coalescing, not for correctness. Only admission
// looks at key hashes, so a collision admits early or costs a fill.
type cache struct {
	shards  [cacheShards]cacheShard
	evicted *obs.Counter // body bytes dropped over budget; nil-inert
}

type cacheShard struct {
	mu    sync.Mutex
	m     map[string]*cacheEntry
	bytes int               // body bytes of the finished entries in m
	seen  [seenSlots]uint32 // per slot, the last key hash filled and not kept
}

// cacheEntry is one computation's lifecycle. done closes when the
// leader finishes; resp/err are written exactly once before that.
// finished (guarded by the shard mutex) marks an entry whose body is
// counted in the shard's bytes.
type cacheEntry struct {
	done     chan struct{}
	resp     *response
	err      error
	finished bool
}

func newCache(evicted *obs.Counter) *cache {
	c := &cache{evicted: evicted}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

// shard returns key's shard and its FNV-1a hash, which also picks the
// key's slot in the shard's seen table.
func (c *cache) shard(key string) (*cacheShard, uint32) {
	h := fnv.New32a()
	h.Write([]byte(key))
	sum := h.Sum32()
	return &c.shards[sum%cacheShards], sum
}

// do returns the cached response for key, computing it via fill on a
// miss. Exactly one caller per key runs fill at a time; the others wait
// for its result (coalescing). A failed fill is forgotten, so the next
// request retries instead of caching the error; a successful fill is
// kept only if its key's hash is in its slot, else it records the hash
// and its entry goes. The hit return distinguishes a finished entry
// (true) from having led or waited on a fill; waited reports a
// coalesced wait.
func (c *cache) do(key string, fill func() (*response, error)) (resp *response, err error, hit, waited bool) {
	sh, h := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			// Finished entry: a plain hit.
			return e.resp, e.err, true, false
		default:
			<-e.done
			return e.resp, e.err, false, true
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	sh.m[key] = e
	sh.mu.Unlock()

	e.resp, e.err = fill()
	close(e.done)
	sh.mu.Lock()
	// Only account for (or forget) our own entry — an invalidation may
	// already have replaced it.
	if sh.m[key] == e {
		if s := &sh.seen[h/cacheShards%seenSlots]; e.err == nil && *s == h {
			c.admit(sh, e)
		} else {
			if e.err == nil {
				*s = h
			}
			delete(sh.m, key)
		}
	}
	sh.mu.Unlock()
	return e.resp, e.err, false, false
}

// admit counts a finished entry against its shard's byte budget. A
// shard the new body would push over budget first drops every finished
// entry it holds, the way invalidate does; in-flight fills stay, so
// their waiters keep coalescing. Called with the shard locked.
func (c *cache) admit(sh *cacheShard, e *cacheEntry) {
	size := len(e.resp.body)
	if sh.bytes+size > shardBudget && sh.bytes > 0 {
		for k, old := range sh.m {
			if old.finished {
				delete(sh.m, k)
			}
		}
		c.evicted.Add(uint64(sh.bytes))
		sh.bytes = 0
	}
	e.finished = true
	sh.bytes += size
}

// invalidate drops every finished and future entry and forgets the keys
// filled once, called when the published snapshot advances. In-flight
// fills are left to complete against their (now unreachable) entries;
// their waiters still get the old snapshot's bytes, which the keyed
// fingerprint makes explicit.
func (c *cache) invalidate() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = make(map[string]*cacheEntry)
		sh.bytes = 0
		sh.seen = [seenSlots]uint32{}
		sh.mu.Unlock()
	}
}

// bytes sums the body bytes of the finished entries over the shards.
func (c *cache) bytes() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += int64(sh.bytes)
		sh.mu.Unlock()
	}
	return n
}
