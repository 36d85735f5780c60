// Package server implements the Swarm storage server: a repository for log
// fragments. Per the paper (§2.3), a storage server is "little more than a
// virtual disk that provides a sparse address space, with additional
// support for client crash recovery, security, and fragment
// reconstruction". Servers never interpret fragment contents, never see
// blocks or records, and never communicate with each other.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swarm/internal/disk"
	"swarm/internal/wire"
)

// Store errors.
var (
	// ErrNotFound is returned for operations on absent fragments.
	ErrNotFound = errors.New("server: fragment not found")
	// ErrExists is returned when storing an already-stored fragment.
	ErrExists = errors.New("server: fragment already exists")
	// ErrNoSpace is returned when no free run of units holds the fragment.
	ErrNoSpace = errors.New("server: no free space")
	// ErrTooLarge is returned when data exceeds the fragment size.
	ErrTooLarge = errors.New("server: data larger than fragment size")
	// ErrBadRange is returned for reads outside the stored fragment.
	ErrBadRange = errors.New("server: read out of range")
	// ErrAccess is returned when an ACL denies the requested access.
	ErrAccess = errors.New("server: access denied")
	// ErrCorruptMeta is returned when on-disk metadata fails validation.
	ErrCorruptMeta = errors.New("server: corrupt on-disk metadata")
)

const (
	superblockSize = 512
	superMagic     = 0x53575342 // "SWSB"
	superVersion   = 2          // unit extents, per-unit entries, format nonce
	// aclRegionSize reserves space after the superblock for the
	// persistent ACL database (§2.3.2: "The server maintains a database
	// of ACLs").
	aclRegionSize = 64 << 10
	entrySize     = 256
	entryMagic    = 0x53575345 // "SWSE"
	maxACLRanges  = 14         // fits a 256-byte entry
	entryNonceOff = entrySize - 12

	flagUsed     = 1 << 0
	flagMarked   = 1 << 1
	flagPrealloc = 1 << 2
)

// fragEntry is the persistent metadata record of one fragment, kept in
// the entry of the fragment's first unit. One entry is rewritten, in a
// single disk write, to commit or delete a fragment — this single write
// is the store's atomicity point (§2.3.1: "All storage server operations
// are atomic").
type fragEntry struct {
	fid    wire.FID
	size   uint32
	flags  uint16
	ranges []wire.ACLRange
}

func (s *fragEntry) used() bool     { return s.flags&flagUsed != 0 }
func (s *fragEntry) marked() bool   { return s.flags&flagMarked != 0 }
func (s *fragEntry) prealloc() bool { return s.flags&flagPrealloc != 0 }

// encode lays the entry out for the store formatted with nonce.
func (s *fragEntry) encode(nonce uint64) []byte {
	buf := make([]byte, entrySize)
	binary.LittleEndian.PutUint32(buf[0:], entryMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(s.fid))
	binary.LittleEndian.PutUint32(buf[12:], s.size)
	binary.LittleEndian.PutUint16(buf[16:], s.flags)
	binary.LittleEndian.PutUint16(buf[18:], uint16(len(s.ranges)))
	off := 20
	for _, r := range s.ranges {
		binary.LittleEndian.PutUint32(buf[off:], r.Off)
		binary.LittleEndian.PutUint32(buf[off+4:], r.Len)
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(r.AID))
		off += 12
	}
	binary.LittleEndian.PutUint64(buf[entryNonceOff:], nonce)
	binary.LittleEndian.PutUint32(buf[entrySize-4:], crc32.ChecksumIEEE(buf[:entrySize-4]))
	return buf
}

// decodeFragEntry parses an entry written under the format nonce; an
// entry from an earlier format of the disk is an error like a torn one.
func decodeFragEntry(buf []byte, nonce uint64) (fragEntry, error) {
	var s fragEntry
	if len(buf) != entrySize {
		return s, fmt.Errorf("%w: entry size %d", ErrCorruptMeta, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != entryMagic {
		return s, fmt.Errorf("%w: bad entry magic", ErrCorruptMeta)
	}
	if crc32.ChecksumIEEE(buf[:entrySize-4]) != binary.LittleEndian.Uint32(buf[entrySize-4:]) {
		return s, fmt.Errorf("%w: entry checksum", ErrCorruptMeta)
	}
	if binary.LittleEndian.Uint64(buf[entryNonceOff:]) != nonce {
		return s, fmt.Errorf("%w: entry from an earlier format", ErrCorruptMeta)
	}
	s.fid = wire.FID(binary.LittleEndian.Uint64(buf[4:]))
	s.size = binary.LittleEndian.Uint32(buf[12:])
	s.flags = binary.LittleEndian.Uint16(buf[16:])
	n := binary.LittleEndian.Uint16(buf[18:])
	if n > maxACLRanges {
		return s, fmt.Errorf("%w: %d ACL ranges", ErrCorruptMeta, n)
	}
	off := 20
	for i := uint16(0); i < n; i++ {
		s.ranges = append(s.ranges, wire.ACLRange{
			Off: binary.LittleEndian.Uint32(buf[off:]),
			Len: binary.LittleEndian.Uint32(buf[off+4:]),
			AID: wire.AID(binary.LittleEndian.Uint32(buf[off+8:])),
		})
		off += 12
	}
	return s, nil
}

// Config parameterizes a fragment store.
type Config struct {
	// FragmentSize is the largest fragment in bytes (the paper uses 1
	// MB); the store allocates in units of FragmentSize/16.
	FragmentSize int
}

// DefaultFragmentSize matches the paper's prototype.
const DefaultFragmentSize = 1 << 20

// Store is the fragment repository: an extent allocator over an array of
// FragmentSize/16-byte units plus a persistent FID→extent map over a
// Disk. It is safe for concurrent use.
//
// On-disk layout (DESIGN.md §3.10): superblock, ACL region, one entry
// per unit, then the units. A fragment takes one contiguous run of the
// units it fills, and its entry is the one of the run's first unit.
//
// Concurrency model: the mutex guards only the in-memory metadata —
// bySID, ents, free, gen, storing. Fragment data writes happen outside
// any lock (freshly allocated units are private to their writer until
// the entry commits), and fsyncs are shared between concurrent stores
// by the sync coalescer.
type Store struct {
	d        disk.Disk
	fragSize int
	unitSize int
	numUnits int
	nonce    uint64 // format nonce: entries carrying another are free
	dataOff  int64  // offset of unit 0

	mu      sync.RWMutex
	bySID   map[wire.FID]int           // FID → first unit of its extent; guarded by mu
	ents    []fragEntry                // per-unit mirror of the on-disk entries, set at first units; guarded by mu
	free    freeRuns                   // free units; guarded by mu
	gen     []uint64                   // per-unit generation, bumped when the extent starting there is freed; guarded by mu
	storing map[wire.FID]chan struct{} // FIDs with an uncommitted store in flight; guarded by mu

	committer *syncCoalescer // shared-fsync barrier (data, entry and ACL syncs)

	stores     atomic.Int64 // committed fragment stores
	storeNanos atomic.Int64 // cumulative wall time of committed stores

	// rcache is the serving-tier extent read cache, of capacity 0 (every
	// read a range read) until SetReadCache sizes it before traffic; see
	// readcache.go.
	rcache    *readCache
	closeOnce sync.Once // guards the readahead worker's stop signal

	// qos is the multi-tenant weighted-fair scheduler (nil = FIFO, the
	// pre-QoS behavior). Set once by SetQoS before traffic; see qos.go.
	qos *qosSched

	acls *ACLDB
}

// Format initializes a disk as an empty fragment store and returns it
// opened. Existing contents are destroyed: the superblock gets a fresh
// format nonce, so every entry an earlier format wrote reads as free,
// and the entry table is neither zeroed nor read.
func Format(d disk.Disk, cfg Config) (*Store, error) {
	if cfg.FragmentSize <= 0 {
		cfg.FragmentSize = DefaultFragmentSize
	}
	unit := UnitSize(cfg.FragmentSize)
	numUnits := int((d.Size() - entryTableOff) / int64(unit+entrySize))
	numUnits -= numUnits % unitsPerFragment // whole fragments of capacity
	if numUnits < unitsPerFragment {
		return nil, fmt.Errorf("server: disk too small: %d bytes for %d-byte fragments", d.Size(), cfg.FragmentSize)
	}
	nonce := rand.Uint64()
	for nonce == 0 {
		nonce = rand.Uint64()
	}
	sb := make([]byte, superblockSize)
	binary.LittleEndian.PutUint32(sb[0:], superMagic)
	binary.LittleEndian.PutUint32(sb[4:], superVersion)
	binary.LittleEndian.PutUint32(sb[8:], uint32(cfg.FragmentSize))
	binary.LittleEndian.PutUint32(sb[12:], uint32(numUnits))
	binary.LittleEndian.PutUint64(sb[16:], nonce)
	binary.LittleEndian.PutUint32(sb[superblockSize-4:], crc32.ChecksumIEEE(sb[:superblockSize-4]))
	if err := d.WriteAt(sb, 0); err != nil {
		return nil, fmt.Errorf("write superblock: %w", err)
	}
	// Zero the ACL region so no stale database survives the format.
	if err := d.WriteAt(make([]byte, aclRegionSize), superblockSize); err != nil {
		return nil, fmt.Errorf("zero ACL region: %w", err)
	}
	if err := d.Sync(); err != nil {
		return nil, fmt.Errorf("sync format: %w", err)
	}
	return open(d, true)
}

// Open loads an existing fragment store from a formatted disk, rebuilding
// the in-memory maps and the free set from the persistent entries.
func Open(d disk.Disk) (*Store, error) { return open(d, false) }

// open loads the store on d; fresh (just formatted) means no entry
// carries the nonce, so every unit is free without reading the table.
func open(d disk.Disk, fresh bool) (*Store, error) {
	sb := make([]byte, superblockSize)
	if err := d.ReadAt(sb, 0); err != nil {
		return nil, fmt.Errorf("read superblock: %w", err)
	}
	if binary.LittleEndian.Uint32(sb[0:]) != superMagic {
		return nil, fmt.Errorf("%w: bad superblock magic", ErrCorruptMeta)
	}
	if crc32.ChecksumIEEE(sb[:superblockSize-4]) != binary.LittleEndian.Uint32(sb[superblockSize-4:]) {
		return nil, fmt.Errorf("%w: superblock checksum", ErrCorruptMeta)
	}
	if v := binary.LittleEndian.Uint32(sb[4:]); v != superVersion {
		return nil, fmt.Errorf("%w: superblock version %d, want %d", ErrCorruptMeta, v, superVersion)
	}
	fragSize := int(binary.LittleEndian.Uint32(sb[8:]))
	numUnits := int(binary.LittleEndian.Uint32(sb[12:]))
	unit := UnitSize(fragSize)
	if fragSize <= 0 || numUnits <= 0 || entryTableOff+int64(numUnits)*int64(unit+entrySize) > d.Size() {
		return nil, fmt.Errorf("%w: %d units of %d bytes do not fit the disk", ErrCorruptMeta, numUnits, unit)
	}
	s := &Store{
		d:        d,
		fragSize: fragSize,
		unitSize: unit,
		numUnits: numUnits,
		nonce:    binary.LittleEndian.Uint64(sb[16:]),
		dataOff:  entryTableOff + int64(numUnits)*entrySize,
		bySID:    make(map[wire.FID]int),
		ents:     make([]fragEntry, numUnits),
		gen:      make([]uint64, numUnits),
		storing:  make(map[wire.FID]chan struct{}),
		rcache:   newReadCache(0, 0),
		acls:     NewACLDB(),
	}
	s.committer = newSyncCoalescer(d)
	if err := s.loadACLs(); err != nil {
		return nil, err
	}
	s.acls.onChange = s.persistACLs
	if fresh {
		s.free = freeRuns{{0, numUnits}}
	} else if err := s.loadEntries(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadEntries reads the whole entry table in one pass and rebuilds
// bySID, ents and the free set. An entry that was never written, was
// cleared, is torn, or carries another format's nonce starts no extent;
// every unit no extent covers is free. Extents that overlap mean the
// table is corrupt. A FID committed twice (a store retried after its
// entry commit failed but reached the disk anyway) keeps its first
// extent; the duplicate entry is cleared before its units are reused.
func (s *Store) loadEntries() error {
	table := make([]byte, s.numUnits*entrySize)
	if err := s.d.ReadAt(table, entryTableOff); err != nil {
		return fmt.Errorf("read entry table: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var dups []int
	next := 0 // first unit no earlier extent covers
	for u := 0; u < s.numUnits; u++ {
		ent, err := decodeFragEntry(table[u*entrySize:(u+1)*entrySize], s.nonce)
		if err != nil || !ent.used() {
			continue
		}
		n := s.extentUnits(&ent)
		switch {
		case u < next:
			return fmt.Errorf("%w: extent at unit %d overlaps the one before it", ErrCorruptMeta, u)
		case int(ent.size) > s.fragSize || u+n > s.numUnits:
			return fmt.Errorf("%w: extent at unit %d: %d bytes", ErrCorruptMeta, u, ent.size)
		}
		if _, dup := s.bySID[ent.fid]; dup {
			dups = append(dups, u)
			continue
		}
		s.free.free(next, u-next)
		next = u + n
		s.ents[u] = ent
		s.bySID[ent.fid] = u
	}
	s.free.free(next, s.numUnits-next)
	for _, u := range dups {
		if err := s.commitEntry(u, fragEntry{}); err != nil {
			return fmt.Errorf("clear duplicate: %w", err)
		}
	}
	return nil
}

// extentUnits is how many units an entry's extent spans: a reservation
// holds a full fragment's worth, a stored fragment what its bytes fill
// (at least one unit).
func (s *Store) extentUnits(ent *fragEntry) int {
	if ent.prealloc() {
		return unitsPerFragment
	}
	return s.unitsFor(int(ent.size))
}

// unitsFor is how many units n bytes of fragment data take.
func (s *Store) unitsFor(n int) int {
	return max(1, (n+s.unitSize-1)/s.unitSize)
}

// FragmentSize returns the largest fragment the store takes, in bytes.
func (s *Store) FragmentSize() int { return s.fragSize }

// ACLs returns the server's ACL database.
func (s *Store) ACLs() *ACLDB { return s.acls }

// entryTableOff is where the entry table begins.
const entryTableOff = superblockSize + aclRegionSize

const aclMagic = 0x53574143 // "SWAC"

// persistACLs writes the ACL database into its reserved region. Called
// from the database's onChange hook (db.mu held).
func (s *Store) persistACLs() error {
	img := s.acls.encodeLocked()
	if len(img)+12 > aclRegionSize {
		return fmt.Errorf("server: ACL database (%d bytes) exceeds reserved region", len(img))
	}
	buf := make([]byte, 12+len(img))
	binary.LittleEndian.PutUint32(buf[0:], aclMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(img)))
	copy(buf[12:], img)
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(img))
	if err := s.d.WriteAt(buf, superblockSize); err != nil {
		return fmt.Errorf("write ACL region: %w", err)
	}
	// The ACL barrier shares fsyncs with concurrent fragment commits.
	return s.committer.Sync()
}

// loadACLs restores the ACL database from disk (a zeroed region means an
// empty database; a torn write is treated the same, since ACL updates
// re-persist on the next change).
func (s *Store) loadACLs() error {
	hdr := make([]byte, 12)
	if err := s.d.ReadAt(hdr, superblockSize); err != nil {
		return fmt.Errorf("read ACL region: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != aclMagic {
		return nil // never written
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if int(n) > aclRegionSize-12 {
		return nil
	}
	img := make([]byte, n)
	if err := s.d.ReadAt(img, superblockSize+12); err != nil {
		return fmt.Errorf("read ACL database: %w", err)
	}
	if crc32.ChecksumIEEE(img) != binary.LittleEndian.Uint32(hdr[8:]) {
		return nil // torn write: start empty rather than refuse to boot
	}
	return s.acls.decodeInto(img)
}

func (s *Store) entryOff(unit int) int64 { return entryTableOff + int64(unit)*entrySize }
func (s *Store) unitOff(unit int) int64  { return s.dataOff + int64(unit)*int64(s.unitSize) }

// commitEntry durably rewrites the entry of the extent starting at unit:
// one entry write, then a barrier shared through the sync coalescer with
// every concurrent data and entry barrier. It takes no lock, so Delete
// and Prealloc call it holding s.mu and Store calls it without.
func (s *Store) commitEntry(unit int, ent fragEntry) error {
	if err := s.d.WriteAt(ent.encode(s.nonce), s.entryOff(unit)); err != nil {
		return fmt.Errorf("write entry: %w", err)
	}
	if err := s.committer.Sync(); err != nil {
		return fmt.Errorf("sync entry: %w", err)
	}
	return nil
}

// waitStoring blocks while an uncommitted store of fid is in flight, so
// metadata operations observe only committed states of that FID. Called
// with s.mu held; returns with it held.
func (s *Store) waitStoring(fid wire.FID) {
	for {
		ch, ok := s.storing[fid]
		if !ok {
			return
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
}

// Store writes a complete fragment. The data is written to free units and
// synced before the entry commits it, so a crash leaves either the whole
// fragment or nothing. mark flags the fragment for LastMarked.
//
// The mutex covers only unit allocation and the commit of the in-memory
// maps; the data write runs unlocked (the units are private until the
// entry commits) and both fsyncs are group-committed, so concurrent
// stores share barriers instead of convoying on the lock.
func (s *Store) Store(fid wire.FID, data []byte, mark bool, ranges []wire.ACLRange) error {
	if len(data) > s.fragSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), s.fragSize)
	}
	if len(ranges) > maxACLRanges {
		return fmt.Errorf("server: too many ACL ranges: %d > %d", len(ranges), maxACLRanges)
	}
	start := time.Now()
	need := s.unitsFor(len(data))

	s.mu.Lock()
	s.waitStoring(fid)
	first, preallocated := s.bySID[fid]
	if preallocated {
		if !s.ents[first].prealloc() {
			s.mu.Unlock()
			return fmt.Errorf("%w: %v", ErrExists, fid)
		}
	} else {
		var ok bool
		if first, ok = s.free.alloc(need); !ok {
			s.mu.Unlock()
			return ErrNoSpace
		}
	}
	inflight := make(chan struct{})
	s.storing[fid] = inflight
	s.mu.Unlock()

	// On failure waiters on this FID re-evaluate, and the units go back
	// to the free set — unless the entry commit failed: that entry may
	// still have reached the disk, so its units are not reused before
	// the next Open reads what the table really holds. A reservation
	// stays a bare reservation either way.
	fail := func(err error, release bool) error {
		s.mu.Lock()
		if release && !preallocated {
			s.free.free(first, need)
		}
		delete(s.storing, fid)
		s.mu.Unlock()
		close(inflight)
		return err
	}
	if err := s.d.WriteAt(data, s.unitOff(first)); err != nil {
		return fail(fmt.Errorf("write fragment data: %w", err), true)
	}
	// Data barrier: the fragment bytes must be durable before the entry
	// that makes them reachable. One coalesced fsync covers every store
	// whose write preceded it.
	if err := s.committer.Sync(); err != nil {
		return fail(fmt.Errorf("sync fragment data: %w", err), true)
	}
	flags := uint16(flagUsed)
	if mark {
		flags |= flagMarked
	}
	ent := fragEntry{fid: fid, size: uint32(len(data)), flags: flags, ranges: ranges}
	if err := s.commitEntry(first, ent); err != nil {
		return fail(err, false)
	}
	s.mu.Lock()
	s.ents[first] = ent
	s.bySID[fid] = first
	if preallocated {
		// The committed entry no longer claims the reservation's tail.
		s.free.free(first+need, unitsPerFragment-need)
	}
	delete(s.storing, fid)
	s.mu.Unlock()
	close(inflight)
	s.stores.Add(1)
	s.storeNanos.Add(int64(time.Since(start)))
	return nil
}

// checkAccess verifies client may touch [off,off+n) of the entry's data.
// Unprotected ranges (no AID assigned) are open to everyone.
func (s *Store) checkAccess(ent *fragEntry, client wire.ClientID, off, n uint32) error {
	for _, r := range ent.ranges {
		if off+n <= r.Off || off >= r.End() {
			continue // no overlap
		}
		if !s.acls.Allowed(r.AID, client) {
			return fmt.Errorf("%w: client %d, aid %d", ErrAccess, client, r.AID)
		}
	}
	return nil
}

// Delete removes a fragment and frees its units. Deleting requires write
// access to every protected range of the fragment. The units return to
// the free set only once the cleared entry is durable, so no crash can
// leave a live entry over units another fragment has since taken.
func (s *Store) Delete(client wire.ClientID, fid wire.FID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitStoring(fid)
	first, ok := s.bySID[fid]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, fid)
	}
	ent := s.ents[first]
	if err := s.checkAccess(&ent, client, 0, ent.size); err != nil {
		return err
	}
	if err := s.commitEntry(first, fragEntry{}); err != nil {
		return err
	}
	s.ents[first] = fragEntry{}
	delete(s.bySID, fid)
	s.gen[first]++ // invalidate in-flight lockless reads of this extent
	s.free.free(first, s.extentUnits(&ent))
	// The generation bump already fences the read cache; dropping the
	// entry eagerly just frees its memory sooner.
	s.rcache.invalidate(fid)
	return nil
}

// Prealloc reserves a full fragment's units for fid without storing data,
// guaranteeing a later Store cannot fail for lack of space. The Store
// gives back the units its data does not fill.
func (s *Store) Prealloc(fid wire.FID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitStoring(fid)
	if _, ok := s.bySID[fid]; ok {
		return fmt.Errorf("%w: %v", ErrExists, fid)
	}
	first, ok := s.free.alloc(unitsPerFragment)
	if !ok {
		return ErrNoSpace
	}
	// A failed entry commit keeps the units: the reservation may have
	// reached the disk (see Store).
	ent := fragEntry{fid: fid, flags: flagUsed | flagPrealloc}
	if err := s.commitEntry(first, ent); err != nil {
		return err
	}
	s.ents[first] = ent
	s.bySID[fid] = first
	return nil
}

// LastMarked returns the marked fragment with the highest sequence number
// owned by client, per §2.3.1: clients find their checkpoints by storing
// them in marked fragments and querying for the newest.
func (s *Store) LastMarked(client wire.ClientID) (wire.FID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best wire.FID
	found := false
	for fid, first := range s.bySID {
		ent := &s.ents[first]
		if !ent.marked() || ent.prealloc() || fid.Client() != client {
			continue
		}
		if !found || fid.Seq() > best.Seq() {
			best, found = fid, true
		}
	}
	return best, found
}

// Has reports whether fid is stored (reservations don't count) and its
// size.
func (s *Store) Has(fid wire.FID) (uint32, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	first, ok := s.bySID[fid]
	if !ok || s.ents[first].prealloc() {
		return 0, false
	}
	return s.ents[first].size, true
}

// List returns all stored FIDs for client (client 0 lists everything),
// sorted ascending.
func (s *Store) List(client wire.ClientID) []wire.FID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]wire.FID, 0, len(s.bySID))
	for fid, first := range s.bySID {
		if s.ents[first].prealloc() {
			continue
		}
		if client != 0 && fid.Client() != client {
			continue
		}
		out = append(out, fid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns current occupancy and the commit- and read-path
// counters (see wire.StatResponse).
//
// Slots are units of FragmentSize capacity, not places: TotalSlots is the
// store's units / 16, and FreeSlots is how many full-size fragments fit
// in the free runs right now (a full-size Store succeeds exactly when it
// is at least one). TotalSlots − FreeSlots thus counts the capacity held,
// fragmentation included.
func (s *Store) Stats() wire.StatResponse {
	req, syncs := s.committer.counters()
	s.mu.RLock()
	st := wire.StatResponse{
		FragmentSize: uint32(s.fragSize),
		TotalSlots:   uint32(s.numUnits / unitsPerFragment),
		FreeSlots:    uint32(s.free.fullSlots()),
		Fragments:    uint32(len(s.bySID)),
		UnitsHeld:    uint32(s.numUnits - s.free.units()),
		Stores:       uint64(s.stores.Load()),
		SyncRequests: uint64(req),
		Syncs:        uint64(syncs),
		StoreNanos:   uint64(s.storeNanos.Load()),
	}
	s.mu.RUnlock()
	if rc := s.rcache; rc.capBytes > 0 {
		st.ReadHits = uint64(rc.hits.Load())
		st.ReadMisses = uint64(rc.misses.Load())
		st.ReadaheadLoads = uint64(rc.raLoads.Load())
		st.ReadBytesCached = uint64(rc.bytesCached.Load())
		st.ReadBytesDisk = uint64(rc.bytesDisk.Load())
		st.ReadCacheBytes = uint64(rc.curBytes())
	}
	if q := s.qos; q != nil {
		st.Tenants = q.TenantStats()
	}
	return st
}

// SetQoS installs the multi-tenant weighted-fair scheduler (DESIGN.md
// §3.14): data-plane requests through Handle are classified by principal,
// scheduled by deficit round robin over byte-weighted costs, charged
// against per-class quotas, and shed with StatusBusy past the admission
// bounds. Call once before serving traffic; a nil receiver-field (the
// default) keeps the pre-QoS FIFO behavior exactly.
func (s *Store) SetQoS(cfg QoSConfig) {
	s.qos = newQoSSched(cfg)
}
