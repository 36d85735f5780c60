package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"swarm/internal/wire"
)

func newCachedStore(t *testing.T, slots int, capBytes int64, depth int) *Store {
	t.Helper()
	s, _ := newTestStore(t, slots)
	s.SetReadCache(capBytes, depth)
	return s
}

// TestReadExtentHitOwnsItsBuffer: a miss that fills and the hits after
// it each return a buffer of their own, copied out of the extent, so a
// caller that writes into (or recycles) what it read changes nothing
// another reader sees.
func TestReadExtentHitOwnsItsBuffer(t *testing.T) {
	s := newCachedStore(t, 8, 1<<20, 0)
	fid := wire.MakeFID(1, 0)
	data := bytes.Repeat([]byte{0xAB}, 1000)
	if err := s.Store(fid, data, false, nil); err != nil {
		t.Fatal(err)
	}
	reads := []struct{ off, n uint32 }{{0, 1000}, {0, 1000}, {100, 50}}
	for i, r := range reads {
		got, ext, err := s.Read(1, fid, r.off, r.n)
		if err != nil {
			t.Fatal(err)
		}
		if ext == nil {
			t.Fatalf("read %d: cache enabled but extent is nil", i)
		}
		if !bytes.Equal(got, data[r.off:r.off+r.n]) {
			t.Fatalf("read %d: data mismatch", i)
		}
		if &got[0] == &ext.buf[r.off] {
			t.Fatalf("read %d returned the extent's own bytes", i)
		}
		clear(got) // the caller's buffer: the extent must not see this
		wire.PutBuffer(got)
	}

	st := s.Stats()
	if st.ReadMisses != 1 || st.ReadHits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", st.ReadHits, st.ReadMisses)
	}
	if st.ReadBytesCached != 1050 {
		t.Fatalf("bytes served from cache = %d, want 1050", st.ReadBytesCached)
	}
}

// TestReadExtentGenerationGuard is the slot-recycling invariant: after a
// fragment is deleted and its slot restored to a NEW fragment, the cache
// must never serve the old bytes — for either FID.
func TestReadExtentGenerationGuard(t *testing.T) {
	// Single-slot store: the new fragment must recycle the old one's slot.
	s := newCachedStore(t, 1, 1<<20, 0)
	oldFID := wire.MakeFID(1, 0)
	oldData := bytes.Repeat([]byte{0x01}, 512)
	if err := s.Store(oldFID, oldData, false, nil); err != nil {
		t.Fatal(err)
	}
	// Populate the cache with the old fragment.
	if data, _, err := s.Read(1, oldFID, 0, 512); err != nil {
		t.Fatal(err)
	} else {
		wire.PutBuffer(data)
	}
	if err := s.Delete(1, oldFID); err != nil {
		t.Fatal(err)
	}
	newFID := wire.MakeFID(1, 7)
	newData := bytes.Repeat([]byte{0x02}, 512)
	if err := s.Store(newFID, newData, false, nil); err != nil {
		t.Fatal(err)
	}

	// The deleted FID must be gone, not served from cache.
	if _, _, err := s.Read(1, oldFID, 0, 512); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted fragment read: %v, want ErrNotFound", err)
	}
	// The recycled slot's new fragment must serve ITS bytes.
	got, _, err := s.Read(1, newFID, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("recycled slot served stale bytes")
	}
	wire.PutBuffer(got)
}

// TestReadExtentZeroCopyAllocs pins the warm cached-read path at zero
// heap allocations: a hit copies its range into a pooled buffer, and a
// caller that hands the buffer back through wire.PutBuffer gets it again
// on the next read, so a hit allocates neither a buffer nor anything
// else.
func TestReadExtentZeroCopyAllocs(t *testing.T) {
	const size, off, n = 16 << 10, 4 << 10, 4 << 10
	s := newSizedStore(t, size, 1<<20)
	fid := wire.MakeFID(1, 0)
	data := storeRandom(t, s, fid, size)
	read := func() {
		got, ext, err := s.Read(1, fid, off, n)
		if err != nil {
			t.Fatal(err)
		}
		if ext == nil || !bytes.Equal(got, data[off:off+n]) {
			t.Fatal("warm read missed the cache or returned the wrong bytes")
		}
		wire.PutBuffer(got)
	}
	read() // fills the extent
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("cached read allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReadaheadPrefetchesNeighbors: a read of fragment i pulls i+1..i+d
// into the cache off the background worker.
func TestReadaheadPrefetchesNeighbors(t *testing.T) {
	s := newCachedStore(t, 8, 1<<20, 2)
	data := bytes.Repeat([]byte{0x11}, 256)
	for seq := uint64(0); seq < 4; seq++ {
		if err := s.Store(wire.MakeFID(1, seq), data, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if data, _, err := s.Read(1, wire.MakeFID(1, 0), 0, 256); err != nil {
		t.Fatal(err)
	} else {
		wire.PutBuffer(data)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s.Stats().ReadaheadLoads >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readahead loads = %d after 2s, want 2", s.Stats().ReadaheadLoads)
		}
		time.Sleep(time.Millisecond)
	}
	// The prefetched neighbors now hit without touching the disk counter.
	diskBefore := s.Stats().ReadBytesDisk
	for seq := uint64(1); seq <= 2; seq++ {
		got, _, err := s.Read(1, wire.MakeFID(1, seq), 0, 256)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("prefetched fragment %d mismatch", seq)
		}
		wire.PutBuffer(got)
	}
	if got := s.Stats().ReadBytesDisk; got != diskBefore {
		t.Fatalf("reads of prefetched fragments went to disk (%d -> %d bytes)", diskBefore, got)
	}
}

// TestReadCacheEvictionBound: occupancy never exceeds the configured
// capacity, and evicted extents stop hitting.
func TestReadCacheEvictionBound(t *testing.T) {
	s, _ := newTestStore(t, 8)
	// Room for two 1000-byte extents.
	s.SetReadCache(2500, 0)
	data := bytes.Repeat([]byte{0x33}, 1000)
	for seq := uint64(0); seq < 4; seq++ {
		if err := s.Store(wire.MakeFID(1, seq), data, false, nil); err != nil {
			t.Fatal(err)
		}
		if data, _, err := s.Read(1, wire.MakeFID(1, seq), 0, 1000); err != nil {
			t.Fatal(err)
		} else {
			wire.PutBuffer(data)
		}
		if cur := s.rcache.curBytes(); cur > 2500 {
			t.Fatalf("cache occupancy %d exceeds cap 2500", cur)
		}
	}
	st := s.Stats()
	if st.ReadCacheBytes > 2500 {
		t.Fatalf("stats occupancy %d exceeds cap", st.ReadCacheBytes)
	}
	// The first fragment was evicted: rereading it is a miss.
	missesBefore := st.ReadMisses
	if data, _, err := s.Read(1, wire.MakeFID(1, 0), 0, 1000); err != nil {
		t.Fatal(err)
	} else {
		wire.PutBuffer(data)
	}
	if got := s.Stats().ReadMisses; got != missesBefore+1 {
		t.Fatal("evicted extent served as a hit")
	}
}

// TestReadExtentDisabledFallsBack: without SetReadCache the cache has
// capacity 0, and Read is a range read — pooled buffer, nil extent, no
// counters.
func TestReadExtentDisabledFallsBack(t *testing.T) {
	s, _ := newTestStore(t, 8)
	fid := wire.MakeFID(1, 0)
	data := bytes.Repeat([]byte{0x44}, 300)
	if err := s.Store(fid, data, false, nil); err != nil {
		t.Fatal(err)
	}
	got, ext, err := s.Read(1, fid, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if ext != nil {
		t.Fatal("disabled cache returned an extent")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fallback read mismatch")
	}
	if st := s.Stats(); st.ReadHits+st.ReadMisses != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", st)
	}
}

// TestCloseStopsReadaheadWorker pins the shutdown fix: before it, the
// readahead worker SetReadCache spawned parked on the prefetch queue
// forever — one leaked goroutine per server restart, and the chaos
// harness restarts servers hundreds of times per run. Store.Close must
// terminate it promptly and idempotently.
func TestCloseStopsReadaheadWorker(t *testing.T) {
	s := newCachedStore(t, 8, 1<<20, 2)
	if s.rcache.raDone == nil {
		t.Fatal("readahead enabled but no worker lifecycle channel")
	}
	// Prove the worker is alive before shutdown: a scheduled hint for a
	// stored fragment gets prefetched.
	fid := wire.MakeFID(1, 0)
	if err := s.Store(fid, bytes.Repeat([]byte{0x5A}, 500), false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(wire.MakeFID(1, 1), bytes.Repeat([]byte{0xA5}, 500), false, nil); err != nil {
		t.Fatal(err)
	}
	s.rcache.schedule(fid)
	deadline := time.Now().Add(2 * time.Second)
	for s.rcache.raLoads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("readahead worker never served the scheduled hint")
		}
		time.Sleep(time.Millisecond)
	}

	s.Close()
	select {
	case <-s.rcache.raDone:
	case <-time.After(2 * time.Second):
		t.Fatal("readahead worker did not exit after Store.Close")
	}
	s.Close() // idempotent: a second Close must not panic or hang
}

// TestCloseWithoutWorkerIsNoop: depth 0 starts no worker, and a store
// with no cache at all has nothing to stop — Close must return
// immediately in both shapes.
func TestCloseWithoutWorkerIsNoop(t *testing.T) {
	s := newCachedStore(t, 8, 1<<20, 0)
	s.Close()
	bare, _ := newTestStore(t, 8)
	bare.Close()
}

// TestPrefetchAbsentIsCheap pins the cost of readahead's usual outcome:
// the next FIDs of a log mostly live on other servers, so most tries
// find nothing. Such a try allocates at most the 8-byte error, and
// formats nothing; with a formatted error per miss the readahead worker
// cost every cached 4 KB read about 3 µs of CPU.
func TestPrefetchAbsentIsCheap(t *testing.T) {
	s := newCachedStore(t, 8, 1<<20, 0)
	fid := wire.MakeFID(1, 5)
	if allocs := testing.AllocsPerRun(100, func() { s.prefetchExtent(s.rcache, fid) }); allocs > 1 {
		t.Fatalf("prefetch of an absent fragment allocates %.1f objects, want at most 1", allocs)
	}
	if _, _, err := s.Read(1, fid, 0, 1); !errors.Is(err, ErrNotFound) || err.Error() != fmt.Sprintf("%v: %v", ErrNotFound, fid) {
		t.Fatalf("read of an absent fragment: %v", err)
	}
}
