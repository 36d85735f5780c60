package server

import (
	"container/list"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"swarm/internal/wire"
)

// readCache is the serving tier's fragment extent cache (DESIGN.md
// §3.13). It holds whole fragment extents keyed by FID so a read-heavy
// cluster serves its hot set from memory instead of paying a disk pass
// per request, and it prefetches the fragments following a miss — log
// reads are sequential by construction, so fragment i's reader usually
// wants i+1 next.
//
// Staleness safety rides on the store's per-unit generation counters:
// every extent records the (first unit, gen) it was filled under, and a
// lookup only hits when the FID still starts at that unit at that
// generation. A Delete freeing the units bumps the generation, so a stale
// extent can never serve another fragment's bytes; Delete also drops the
// FID's entry eagerly to free memory.
//
// Admission is rent-or-buy once the cache is full: a miss that would
// evict another extent to fill its own reads only the requested range,
// and the fragment is filled by the partial read that brings its running
// total to the extent size (see admit). An extent larger than the cache
// is never filled, so a store with no cache is one of capacity 0, where
// every read is a range read of its bytes.
//
// A read owns what it returns: a hit copies its range out of the extent
// into a pooled buffer of its own. An extent's buffer is immutable once
// filled and is left to the garbage collector when evicted, never put
// back in the pool, so a reader still copying from an evicted extent
// reads the bytes it looked up.
type readCache struct {
	capBytes int64 // 0 is no cache: every read is a range read of its bytes
	depth    int   // readahead depth in fragments (0 = no readahead)

	hits        atomic.Int64
	misses      atomic.Int64
	raLoads     atomic.Int64 // extents filled by the readahead worker
	bytesCached atomic.Int64 // payload bytes served from cache
	bytesDisk   atomic.Int64 // bytes read from disk: fills and range reads

	mu    sync.Mutex
	bytes int64
	lru   *list.List // front = most recent; values are *Extent
	index map[wire.FID]*list.Element
	// partial holds, per non-resident FID, the bytes range reads have
	// served since the cache was full (admit). Dropped on fill and in
	// invalidate, so it never outlives the fragment.
	partial map[wire.FID]partialReads

	// raCh feeds the readahead worker the FIDs whose neighbors should be
	// prefetched. Sends never block: under load, dropping a readahead
	// hint is strictly better than stalling a foreground read. raCh is
	// never closed — schedule may race with shutdown — so the worker's
	// stop signal is its own channel.
	raCh      chan wire.FID
	lastSched atomic.Uint64 // last FID handed to the worker (dedup)

	// raStop is closed by Store.Close to terminate the readahead worker;
	// raDone is closed by the worker on exit and is non-nil only when a
	// worker was started (readahead depth > 0).
	raStop chan struct{}
	raDone chan struct{}
}

// Extent is one cached fragment: the full stored payload plus the
// identity it was validated against.
type Extent struct {
	fid  wire.FID
	unit int
	gen  uint64
	buf  []byte // immutable once filled; len == the fragment's stored size
	// crc is crcValid|crc32.ChecksumIEEE(buf) once a response needed it,
	// zero before. It is computed on first use, not at fill: most
	// extents a miss fills serve only small interior reads, which never
	// need it, and a fill-time pass would add 1 MB of hashing to each
	// of those misses.
	crc atomic.Uint64
}

const crcValid = 1 << 32

// partialReads is a fragment's running total of range-read bytes,
// stamped like an Extent with the (unit, gen) it was counted under; a
// recycled unit starts the total again from zero.
type partialReads struct {
	unit  int
	gen   uint64
	bytes int64
}

// tailCRC returns the CRC-32 (IEEE) of buf[off:], derived from the whole
// buffer's checksum and that of the off-byte prefix. Only the first call
// hashes the whole buffer; concurrent first callers may each do so, and
// they store the same value.
func (e *Extent) tailCRC(off int) uint32 {
	v := e.crc.Load()
	if v == 0 {
		v = crcValid | uint64(crc32.ChecksumIEEE(e.buf))
		e.crc.Store(v)
	}
	return wire.SuffixCRC(uint32(v), crc32.ChecksumIEEE(e.buf[:off]), len(e.buf)-off)
}

func newReadCache(capBytes int64, depth int) *readCache {
	return &readCache{
		capBytes: capBytes,
		depth:    depth,
		lru:      list.New(),
		index:    make(map[wire.FID]*list.Element),
		partial:  make(map[wire.FID]partialReads),
		raCh:     make(chan wire.FID, 256),
		raStop:   make(chan struct{}),
	}
}

// get returns the extent for fid if it is cached AND still describes the
// live (unit, gen) the caller just resolved under the store mutex. A
// stale entry (unit recycled since the fill) is dropped and reported as
// a miss.
func (rc *readCache) get(fid wire.FID, unit int, gen uint64) *Extent {
	rc.mu.Lock()
	el, ok := rc.index[fid]
	if !ok {
		rc.mu.Unlock()
		return nil
	}
	ext := el.Value.(*Extent)
	if ext.unit != unit || ext.gen != gen {
		rc.removeLocked(el)
		rc.mu.Unlock()
		return nil
	}
	rc.lru.MoveToFront(el)
	rc.mu.Unlock()
	return ext
}

// insert adds a freshly filled extent, taking ownership of buf (a pooled
// buffer) that fits the cache (admit). It returns the canonical extent
// for fid: if a concurrent fill won the race the newcomer's buffer,
// which no reader has seen, is recycled and the resident entry is
// returned instead.
// swarmlint:owns-buffer
func (rc *readCache) insert(fid wire.FID, unit int, gen uint64, buf []byte) *Extent {
	rc.mu.Lock()
	delete(rc.partial, fid)
	if el, ok := rc.index[fid]; ok {
		ext := el.Value.(*Extent)
		if ext.unit == unit && ext.gen == gen {
			rc.lru.MoveToFront(el)
			rc.mu.Unlock()
			wire.PutBuffer(buf)
			return ext
		}
		rc.removeLocked(el) // recycled unit: the resident entry is stale
	}
	ext := &Extent{fid: fid, unit: unit, gen: gen, buf: buf}
	rc.index[fid] = rc.lru.PushFront(ext)
	rc.bytes += int64(len(buf))
	rc.evictLocked()
	rc.mu.Unlock()
	return ext
}

// contains reports whether fid has a live entry for (unit, gen) — the
// readahead worker's cheap "already done" check.
func (rc *readCache) contains(fid wire.FID, unit int, gen uint64) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.index[fid]
	if !ok {
		return false
	}
	ext := el.Value.(*Extent)
	return ext.unit == unit && ext.gen == gen
}

// invalidate eagerly drops fid's entry (Delete's belt; the generation
// check is the braces).
func (rc *readCache) invalidate(fid wire.FID) {
	rc.mu.Lock()
	delete(rc.partial, fid)
	if el, ok := rc.index[fid]; ok {
		rc.removeLocked(el)
	}
	rc.mu.Unlock()
}

// admit decides how a miss of n bytes of fid's size-byte extent is
// served: true fills the whole extent, false reads only the range. An
// extent larger than the cache never fills, and a cache of capacity 0
// fills nothing, so with no cache every read is a range read of its
// bytes. While the extent fits beside the resident ones every miss
// fills. Once filling would evict, a fragment must earn its fill: each
// range read adds n to the fragment's running total, and the read that
// brings the total to at least size fills. A whole-extent read
// therefore fills at once, and so does fragio's header probe followed
// by its payload fetch; a fragment read once in 4 KB costs 4 KB of
// disk, not a 1 MB fill.
func (rc *readCache) admit(fid wire.FID, unit int, gen uint64, n, size uint32) bool {
	if rc.capBytes == 0 || int64(size) > rc.capBytes {
		return false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.bytes+int64(size) <= rc.capBytes {
		return true
	}
	p := rc.partial[fid]
	if p.unit != unit || p.gen != gen {
		p = partialReads{unit: unit, gen: gen}
	}
	p.bytes += int64(n)
	if p.bytes >= int64(size) {
		delete(rc.partial, fid)
		return true
	}
	rc.partial[fid] = p
	return false
}

// forget drops fid's partial-read total if it was counted under (unit,
// gen). A miss whose unit was recycled between its lookup and admit
// calls it, so Delete's invalidate cannot be overtaken by a stale total.
func (rc *readCache) forget(fid wire.FID, unit int, gen uint64) {
	rc.mu.Lock()
	if p, ok := rc.partial[fid]; ok && p.unit == unit && p.gen == gen {
		delete(rc.partial, fid)
	}
	rc.mu.Unlock()
}

// removeLocked unlinks an entry. Its buffer goes to the garbage
// collector, not the pool: readers that looked it up may still be
// copying from it.
func (rc *readCache) removeLocked(el *list.Element) {
	ext := el.Value.(*Extent)
	rc.lru.Remove(el)
	delete(rc.index, ext.fid)
	rc.bytes -= int64(len(ext.buf))
}

func (rc *readCache) evictLocked() {
	for rc.bytes > rc.capBytes && rc.lru.Len() > 0 {
		rc.removeLocked(rc.lru.Back())
	}
}

// schedule hands fid to the readahead worker. Never blocks; duplicate
// back-to-back hints and full queues are dropped.
func (rc *readCache) schedule(fid wire.FID) {
	if rc.depth <= 0 || rc.lastSched.Swap(uint64(fid)) == uint64(fid) {
		return
	}
	select {
	case rc.raCh <- fid:
	default:
	}
}

// curBytes returns current occupancy.
func (rc *readCache) curBytes() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.bytes
}

// DefaultReadCacheBytes sizes the serving-tier extent cache when the
// caller doesn't.
const DefaultReadCacheBytes = 64 << 20

// DefaultReadahead is the default readahead depth in fragments.
const DefaultReadahead = 4

// SetReadCache sizes the serving-tier extent cache: reads are answered
// from (and fill) an LRU of whole fragment extents bounded by capBytes,
// and a miss on fragment i prefetches the next depth fragments of the
// same log off the same disk pass (depth 0 disables readahead). While
// the cache has room every miss fills; once it is full, a miss reads
// only its range until the fragment's range reads add up to its size,
// so capBytes should cover the hot set. Call it once, before serving
// traffic; capBytes <= 0 keeps the cache at capacity 0, where every
// read is a range read of its bytes.
func (s *Store) SetReadCache(capBytes int64, depth int) {
	if capBytes <= 0 {
		return
	}
	s.rcache = newReadCache(capBytes, depth)
	if depth > 0 {
		s.rcache.raDone = make(chan struct{})
		go s.readaheadWorker(s.rcache)
	}
}

// Close stops the store's background work — today, the readahead
// worker. It does not touch the disk, which the store does not own.
// Idempotent; a Store that never started a worker closes trivially.
func (s *Store) Close() {
	rc := s.rcache
	if rc.raDone == nil {
		return
	}
	s.closeOnce.Do(func() { close(rc.raStop) })
	<-rc.raDone
}

// errRecycled reports that a fragment's units were freed, and maybe
// reused, while load read them.
var errRecycled = errors.New("server: units recycled during the read")

// notFound is ErrNotFound for one FID, formatted only when printed:
// readahead's locate misses most FIDs it tries, and formatting an error
// on each miss made a try ~40x slower than the lookup itself.
type notFound wire.FID

func (e notFound) Error() string { return fmt.Sprintf("%v: %v", ErrNotFound, wire.FID(e)) }
func (e notFound) Unwrap() error { return ErrNotFound }

// locate resolves fid under the metadata lock for a read of [off,
// off+n) by client: the fragment must be stored (not a reservation),
// hold the range, and let client read it. It returns the extent's first
// unit, that unit's generation and the fragment's size. The empty range
// every fragment holds and no ACL covers resolves the fragment alone.
func (s *Store) locate(client wire.ClientID, fid wire.FID, off, n uint32) (int, uint64, uint32, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	first, ok := s.bySID[fid]
	if !ok || s.ents[first].prealloc() {
		return 0, 0, 0, notFound(fid)
	}
	ent := &s.ents[first]
	if off+n > ent.size || off+n < off {
		return 0, 0, 0, fmt.Errorf("%w: [%d,%d) of %d", ErrBadRange, off, off+n, ent.size)
	}
	if err := s.checkAccess(ent, client, off, n); err != nil {
		return 0, 0, 0, err
	}
	return first, s.gen[first], ent.size, nil
}

// load reads n bytes at off within the extent located at (first, gen)
// into a pooled buffer — the one place fragment data leaves the disk.
// The metadata lock is not held across the disk read, so a concurrent
// Delete + Store may have recycled the units for another fragment
// mid-read and handed us its bytes. The generation counter of the
// extent's first unit (bumped whenever the extent is freed) detects
// that: the read is discarded and load fails with errRecycled.
func (s *Store) load(rc *readCache, fid wire.FID, first int, gen uint64, off, n uint32) ([]byte, error) {
	buf := wire.GetBuffer(int(n))
	if err := s.d.ReadAt(buf, s.unitOff(first)+int64(off)); err != nil {
		wire.PutBuffer(buf)
		return nil, fmt.Errorf("read fragment data: %w", err)
	}
	rc.bytesDisk.Add(int64(n))
	s.mu.RLock()
	cur, ok := s.bySID[fid]
	valid := ok && cur == first && s.gen[first] == gen
	s.mu.RUnlock()
	if !valid {
		wire.PutBuffer(buf)
		return nil, errRecycled
	}
	return buf, nil
}

// Read returns n bytes at off within fragment fid in a pooled buffer
// the caller owns, enforcing ACLs for the requesting client on every
// request, cached or not, so readahead never bypasses access control.
// A read the extent cache holds, or a miss it admits (admit), copies its
// range out of the extent and also returns the extent, whose checksum
// can stand in for the copy's (cachedReadResponse). Any other read is a
// range read, and the extent is nil. A read whose units were recycled
// mid-read retries against the new state, which usually reports the FID
// gone; the cache never keeps, nor serves, such bytes.
func (s *Store) Read(client wire.ClientID, fid wire.FID, off, n uint32) ([]byte, *Extent, error) {
	rc := s.rcache
	for {
		first, gen, size, err := s.locate(client, fid, off, n)
		if err != nil {
			return nil, nil, err
		}
		if ext := rc.get(fid, first, gen); ext != nil {
			rc.hits.Add(1)
			rc.bytesCached.Add(int64(n))
			rc.schedule(fid)
			return ext.copyRange(off, n), ext, nil
		}
		rc.misses.Add(1)

		// Miss: a fill loads the whole extent in one disk pass, so the
		// header probe and payload fetch that follow it — and every
		// later reader of this fragment — hit. Unadmitted, read just the
		// requested bytes.
		fill := rc.admit(fid, first, gen, n, size)
		at, want := off, n
		if fill {
			at, want = 0, size
		}
		buf, err := s.load(rc, fid, first, gen, at, want)
		if errors.Is(err, errRecycled) {
			rc.forget(fid, first, gen)
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		rc.schedule(fid)
		if !fill {
			return buf, nil, nil
		}
		ext := rc.insert(fid, first, gen, buf)
		return ext.copyRange(off, n), ext, nil
	}
}

// copyRange returns extent bytes [off, off+n) in a pooled buffer.
func (e *Extent) copyRange(off, n uint32) []byte {
	buf := wire.GetBuffer(int(n))
	copy(buf, e.buf[off:off+n])
	return buf
}

// readaheadWorker serves the prefetch queue: for each scheduled FID it
// loads the next depth fragments of the same client log into the cache.
// The worker runs until Store.Close closes raStop; hints already queued
// at shutdown are dropped — readahead is advisory.
func (s *Store) readaheadWorker(rc *readCache) {
	defer close(rc.raDone)
	for {
		select {
		case <-rc.raStop:
			return
		case fid := <-rc.raCh:
			for i := uint64(1); i <= uint64(rc.depth); i++ {
				s.prefetchExtent(rc, wire.MakeFID(fid.Client(), fid.Seq()+i))
			}
		}
	}
}

// prefetchExtent speculatively loads one fragment into the cache, by
// Read's locate and load. Absent fragments (this server doesn't hold
// every member of a stripe), extents larger than the cache and races
// with Delete are silently skipped — readahead is advisory.
func (s *Store) prefetchExtent(rc *readCache, fid wire.FID) {
	first, gen, size, err := s.locate(0, fid, 0, 0)
	if err != nil || int64(size) > rc.capBytes || rc.contains(fid, first, gen) {
		return
	}
	buf, err := s.load(rc, fid, first, gen, 0, size)
	if err != nil {
		return
	}
	rc.raLoads.Add(1)
	rc.insert(fid, first, gen, buf)
}
