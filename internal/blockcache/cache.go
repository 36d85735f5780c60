// Package blockcache implements the client-side caching service the
// paper lists among the services layered on the log (§2.2) and leans on
// in the evaluation: "we expect most reads to be handled by the client
// cache" and "Swarm's poor read performance is masked by the client-side
// cache" (§3.4). The cache intercepts reads between a service and the
// log, holding whole blocks keyed by block address.
//
// The structure is built for many concurrent readers (DESIGN.md §3.13):
// the LRU is sharded by address hash so hot hits on different blocks
// never contend on one lock, hit/miss counters are atomics, and a hit
// returns a subslice of the cached block — zero allocations, zero
// copies (callers treat the result as read-only, and every existing
// caller copies out what it needs).
//
// Misses fall through to the Reader below (normally *core.Log) under a
// per-block singleflight: N concurrent readers of one uncached block
// produce exactly one lower-level fill and share its result. Fills —
// including the log's fragment-grained readahead — are issued through
// the log's fragment I/O engine (internal/fragio), so they share the
// same per-server queues, parallel fan-out, and reconstruction
// deduplication as every other fetch path.
package blockcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"swarm/internal/core"
)

// Reader is the read interface the cache sits on top of (satisfied by
// *core.Log).
type Reader interface {
	Read(addr core.BlockAddr, off, n uint32) ([]byte, error)
}

const (
	// maxShards bounds the LRU sharding (power of two). 16 shards keep
	// 64 concurrent readers from convoying on one mutex while costing 15
	// extra list heads.
	maxShards = 16
	// minShardBytes is the smallest per-shard budget worth splitting
	// into: a shard that can't hold a handful of blocks just thrashes.
	// Small caches therefore shard less — down to one shard, which
	// preserves exact global LRU order.
	minShardBytes = 256 << 10
)

// shardsFor picks the shard count for a capacity: the largest power of
// two ≤ maxShards that still gives every shard at least minShardBytes.
func shardsFor(capBytes int64) int {
	n := 1
	for n < maxShards && capBytes/int64(n*2) >= minShardBytes {
		n *= 2
	}
	return n
}

// shard is one slice of the LRU. Each shard evicts against its share of
// the byte budget, so the cache as a whole stays within capBytes.
type shard struct {
	mu    sync.Mutex
	cap   int64
	bytes int64
	lru   *list.List // front = most recent; values are *cacheEntry
	index map[core.BlockAddr]*list.Element
}

type cacheEntry struct {
	addr core.BlockAddr
	data []byte
}

// Cache is a sharded LRU block cache with per-block singleflight fills.
type Cache struct {
	lower Reader

	shards []shard
	mask   uint64 // len(shards)-1; len is a power of two

	hits   atomic.Int64
	misses atomic.Int64
	fills  atomic.Int64 // lower-level reads actually issued

	flightMu sync.Mutex
	flights  map[core.BlockAddr]*flight
}

// flight is one in-progress lower-level block fill; concurrent readers
// of the same block wait on done and share data/err.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// New returns a cache over lower holding at most capBytes of block data.
func New(lower Reader, capBytes int64) *Cache {
	c := &Cache{
		lower:   lower,
		flights: make(map[core.BlockAddr]*flight),
	}
	n := shardsFor(capBytes)
	c.shards = make([]shard, n)
	c.mask = uint64(n - 1)
	perShard := capBytes / int64(n)
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].lru = list.New()
		c.shards[i].index = make(map[core.BlockAddr]*list.Element)
	}
	return c
}

// shardOf hashes a block address onto its shard.
func (c *Cache) shardOf(addr core.BlockAddr) *shard {
	h := (uint64(addr.FID) ^ uint64(addr.Off)<<32 ^ uint64(addr.Off)) * 0x9e3779b97f4a7c15
	return &c.shards[(h>>48)&c.mask]
}

// lookup returns the cached subslice for a hit, or nil. The short-entry
// case (off+n beyond the cached data) returns nil with short=true so the
// caller falls through to the log without treating it as a plain miss.
func (c *Cache) lookup(addr core.BlockAddr, off, n uint32) (data []byte, short bool) {
	sh := c.shardOf(addr)
	sh.mu.Lock()
	el, ok := sh.index[addr]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if int(off)+int(n) > len(ent.data) {
		sh.mu.Unlock()
		return nil, true
	}
	sh.lru.MoveToFront(el)
	out := ent.data[off : off+n : off+n]
	sh.mu.Unlock()
	return out, false
}

// ReadBlock returns n bytes at off within the block at addr, whose total
// length is blockLen. A miss fetches and caches the whole block, the
// behaviour that makes rereads free. Hits return a read-only subslice of
// the cached block: zero copies, zero allocations.
func (c *Cache) ReadBlock(addr core.BlockAddr, blockLen, off, n uint32) ([]byte, error) {
	if data, short := c.lookup(addr, off, n); data != nil {
		c.hits.Add(1)
		return data, nil
	} else if short {
		// Stale or short entry: fall through to the log.
		c.hits.Add(1)
		return c.lower.Read(addr, off, n)
	}
	c.misses.Add(1)

	// Per-block singleflight: the first reader fills, the rest wait and
	// share. (fragio dedups per-FID flights below us, but a block read
	// is one ranged request — without this, N concurrent misses on one
	// hot block issue N identical fills.)
	c.flightMu.Lock()
	// A fill may have landed between lookup and here: it cached the
	// block and retired its flight, so no flight is found. Look again
	// under flightMu, which a landing fill takes after caching, before
	// starting a second fill of the same block.
	if data, _ := c.lookup(addr, off, n); data != nil {
		c.flightMu.Unlock()
		return data, nil
	}
	if f, ok := c.flights[addr]; ok {
		c.flightMu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		if int(off)+int(n) > len(f.data) {
			return c.lower.Read(addr, off, n)
		}
		return f.data[off : off+n : off+n], nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[addr] = f
	c.flightMu.Unlock()

	c.fills.Add(1)
	f.data, f.err = c.lower.Read(addr, 0, blockLen)
	if f.err == nil {
		// The lower read handed us a fresh buffer: the cache keeps it.
		c.Put(addr, f.data)
	}
	c.flightMu.Lock()
	delete(c.flights, addr)
	c.flightMu.Unlock()
	close(f.done)

	if f.err != nil {
		return nil, f.err
	}
	if int(off)+int(n) > len(f.data) {
		return c.lower.Read(addr, off, n)
	}
	return f.data[off : off+n : off+n], nil
}

// Put inserts (or refreshes) a block, taking ownership of data: the
// cache keeps it without copying and hands out read-only views of it,
// so the caller must neither modify nor reuse it. Writers use it to warm
// the cache with a block they just appended (Sting gives it the page
// its flush has dropped); fills use it for the buffer the log returned.
func (c *Cache) Put(addr core.BlockAddr, data []byte) {
	sh := c.shardOf(addr)
	sh.mu.Lock()
	if el, ok := sh.index[addr]; ok {
		ent := el.Value.(*cacheEntry)
		sh.bytes += int64(len(data)) - int64(len(ent.data))
		ent.data = data
		sh.lru.MoveToFront(el)
	} else {
		sh.index[addr] = sh.lru.PushFront(&cacheEntry{addr: addr, data: data})
		sh.bytes += int64(len(data))
	}
	for sh.bytes > sh.cap && sh.lru.Len() > 0 {
		el := sh.lru.Back()
		ent := el.Value.(*cacheEntry)
		sh.lru.Remove(el)
		delete(sh.index, ent.addr)
		sh.bytes -= int64(len(ent.data))
	}
	sh.mu.Unlock()
}

// Invalidate removes a block (e.g. after the owner deletes it or the
// cleaner moves it).
func (c *Cache) Invalidate(addr core.BlockAddr) {
	sh := c.shardOf(addr)
	sh.mu.Lock()
	if el, ok := sh.index[addr]; ok {
		ent := el.Value.(*cacheEntry)
		sh.lru.Remove(el)
		delete(sh.index, addr)
		sh.bytes -= int64(len(ent.data))
	}
	sh.mu.Unlock()
}

// Stats reports hit/miss counts and current occupancy.
func (c *Cache) Stats() (hits, misses, bytes int64) {
	for i := range c.shards {
		c.shards[i].mu.Lock()
		bytes += c.shards[i].bytes
		c.shards[i].mu.Unlock()
	}
	return c.hits.Load(), c.misses.Load(), bytes
}

// Fills returns how many lower-level block reads the cache actually
// issued: misses minus the singleflight sharing.
func (c *Cache) Fills() int64 { return c.fills.Load() }

// Len returns the number of cached blocks.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].lru.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}
