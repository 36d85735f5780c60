package server

import (
	"runtime"
	"sort"
	"sync"

	"swarm/internal/disk"
)

// This file implements the store's group-commit machinery (DESIGN.md
// §3.10). Two cooperating pieces move the commit path off the old
// one-lock-two-fsyncs-per-store design:
//
//   - syncCoalescer shares physical d.Sync calls between concurrent
//     committers (classic WAL group commit): a caller whose writes are
//     already on the disk's queue registers and is satisfied by any
//     barrier sync that *starts* after registration.
//
//   - entryCommitter batches slot-entry writes: concurrent commits that
//     overlap in time are written by a single leader (sorted by disk
//     offset) and made durable by one shared sync.
//
// Ownership rule: neither structure ever takes the store mutex, so
// callers may hold it (Delete, Prealloc do) or not (Store does not)
// while waiting on a barrier — the leader of a batch never needs s.mu.

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

// entryReq is one slot-entry write queued for a batched commit.
type entryReq struct {
	off int64
	buf []byte
	err error
}

type entryBatch struct {
	done chan struct{}
	reqs []*entryReq
}

// entryCommitter batches slot-entry writes. Entries from commits that
// overlap in time are written together by one leader — sorted by offset,
// so adjacent slots become near-sequential disk writes — and committed
// by a single coalesced sync. Per-entry write errors stay with their
// entry; a sync failure fails every entry in the batch (none is provably
// durable).
type entryCommitter struct {
	d    disk.Disk
	sync *syncCoalescer // shared with the data-barrier path

	mu      sync.Mutex
	idle    *sync.Cond
	writing bool        // guarded by mu
	pending *entryBatch // guarded by mu

	batches int64 // batches written; guarded by mu
	entries int64 // entries across all batches; guarded by mu
}

func newEntryCommitter(d disk.Disk, sc *syncCoalescer) *entryCommitter {
	c := &entryCommitter{d: d, sync: sc}
	c.idle = sync.NewCond(&c.mu)
	return c
}

// commit durably writes one encoded slot entry at off, sharing the write
// pass and the fsync with any concurrent commits.
func (c *entryCommitter) commit(off int64, buf []byte) error {
	req := &entryReq{off: off, buf: buf}
	c.mu.Lock()
	if b := c.pending; b != nil {
		b.reqs = append(b.reqs, req)
		c.mu.Unlock()
		<-b.done
		return req.err
	}
	b := &entryBatch{done: make(chan struct{}), reqs: []*entryReq{req}}
	c.pending = b
	for c.writing {
		c.idle.Wait()
	}
	c.pending = nil
	c.writing = true
	c.mu.Unlock()

	sort.Slice(b.reqs, func(i, j int) bool { return b.reqs[i].off < b.reqs[j].off })
	for _, r := range b.reqs {
		if err := c.d.WriteAt(r.buf, r.off); err != nil {
			r.err = err
		}
	}
	serr := c.sync.Sync()
	for _, r := range b.reqs {
		if r.err == nil {
			r.err = serr
		}
	}

	c.mu.Lock()
	c.writing = false
	c.batches++
	c.entries += int64(len(b.reqs))
	c.idle.Broadcast()
	c.mu.Unlock()
	close(b.done)
	return req.err
}

// counters returns (batches, entries batched).
func (c *entryCommitter) counters() (batches, entries int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches, c.entries
}
