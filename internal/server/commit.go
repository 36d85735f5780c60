package server

import (
	"runtime"
	"sync"

	"swarm/internal/disk"
)

// This file implements the store's group commit (DESIGN.md §3.10):
// syncCoalescer shares physical d.Sync calls between concurrent
// committers (classic WAL group commit). A caller whose writes are
// already on the disk's queue registers and is satisfied by any barrier
// sync that *starts* after registration. Both barriers of a store — the
// data barrier and the entry commit — and the ACL barrier go through the
// one coalescer, so waiters of every kind share one physical fsync.
//
// Ownership rule: the coalescer never takes the store mutex, so callers
// may hold it (Delete, Prealloc do) or not (Store does not) while
// waiting on a barrier — the leader of a batch never needs s.mu.

// syncCoalescer shares fsyncs among concurrent committers. A caller must
// finish its own WriteAt calls before calling Sync; the coalescer then
// guarantees the caller does not return until a d.Sync that began after
// registration has completed — the invariant that makes an acknowledged
// store durable.
type syncCoalescer struct {
	d disk.Disk

	mu      sync.Mutex
	idle    *sync.Cond // signaled when an in-flight d.Sync finishes
	syncing bool       // a physical d.Sync is running; guarded by mu
	pending *syncBatch // batch currently accepting joiners, if any; guarded by mu

	requests int64 // logical barriers requested; guarded by mu
	syncs    int64 // physical d.Sync calls issued; guarded by mu
}

type syncBatch struct {
	done chan struct{}
	err  error
}

func newSyncCoalescer(d disk.Disk) *syncCoalescer {
	c := &syncCoalescer{d: d}
	c.idle = sync.NewCond(&c.mu)
	return c
}

// Sync registers with the current batch (or leads a new one) and blocks
// until a physical sync covering the caller's writes has completed.
func (c *syncCoalescer) Sync() error {
	c.mu.Lock()
	c.requests++
	if b := c.pending; b != nil {
		// A batch is forming and its sync has not started: join it.
		c.mu.Unlock()
		<-b.done
		return b.err
	}
	// Lead a new batch. It stays open to joiners until the previous
	// sync (if any) finishes.
	b := &syncBatch{done: make(chan struct{})}
	c.pending = b
	if !c.syncing {
		// Idle coalescer: linger a few scheduler yields (microseconds,
		// far below time.Sleep granularity) so committers arriving
		// near-simultaneously on other CPUs join this batch instead of
		// each paying a private fsync.
		for i := 0; i < 4 && !c.syncing; i++ {
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
		}
	}
	for c.syncing {
		c.idle.Wait()
	}
	// Close the batch before syncing: a writer arriving from here on
	// cannot prove its data predates the sync, so it starts a new one.
	c.pending = nil
	c.syncing = true
	c.syncs++
	c.mu.Unlock()

	b.err = c.d.Sync()

	c.mu.Lock()
	c.syncing = false
	c.idle.Broadcast()
	c.mu.Unlock()
	close(b.done)
	return b.err
}

// counters returns (logical requests, physical syncs).
func (c *syncCoalescer) counters() (requests, syncs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requests, c.syncs
}
