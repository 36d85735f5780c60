package server

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"swarm/internal/disk"
	"swarm/internal/wire"
)

// admissionFrag is the fragment size of the admission tests: large
// enough for a 4 KB read to be interior, small enough to keep disks tiny.
const admissionFrag = 64 << 10

// newFullCacheStore returns a store with room for slots fragments and an
// extent cache that holds exactly two of them, already filled by two
// resident fragments (FIDs 9/0 and 9/1). Any further fill would evict.
func newFullCacheStore(t testing.TB, slots int) *Store {
	t.Helper()
	d := disk.NewMemDisk(storeDiskBytes(admissionFrag, slots))
	s, err := Format(d, Config{FragmentSize: admissionFrag})
	if err != nil {
		t.Fatal(err)
	}
	s.SetReadCache(2*admissionFrag, 0)
	for seq := uint64(0); seq < 2; seq++ {
		fid := wire.MakeFID(9, seq)
		storeRandom(t, s, fid, admissionFrag)
		mustReadExtent(t, s, fid, 0, admissionFrag)
	}
	if got := s.rcache.curBytes(); got != 2*admissionFrag {
		t.Fatalf("setup: cache holds %d bytes, want %d", got, 2*admissionFrag)
	}
	return s
}

// mustReadExtent reads through the serving tier, recycles the buffer the
// read returned, and reports whether the read was served from an extent.
func mustReadExtent(t testing.TB, s *Store, fid wire.FID, off, n uint32) ([]byte, bool) {
	t.Helper()
	data, ext, err := s.Read(1, fid, off, n)
	if err != nil {
		t.Fatal(err)
	}
	out := bytes.Clone(data)
	wire.PutBuffer(data)
	return out, ext != nil
}

func lruFIDs(rc *readCache) []wire.FID {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var fids []wire.FID
	for el := rc.lru.Front(); el != nil; el = el.Next() {
		fids = append(fids, el.Value.(*Extent).fid)
	}
	return fids
}

func resident(rc *readCache, fid wire.FID) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	_, ok := rc.index[fid]
	return ok
}

// On a full cache, a 4 KB interior read of a fragment that is not
// resident is a range read: right bytes, the uncached path's frame, no
// insertion, no eviction, LRU order untouched, and n bytes of disk.
func TestFullCacheMissIsRangeRead(t *testing.T) {
	s := newFullCacheStore(t, 4)
	plain := newSizedStore(t, admissionFrag, 0)
	fid := wire.MakeFID(1, 0)
	data := storeRandom(t, s, fid, admissionFrag)
	storeRandom(t, plain, fid, admissionFrag)
	const off, n = 8 << 10, 4 << 10

	before := s.Stats()
	order := lruFIDs(s.rcache)
	got, ext, err := s.Read(1, fid, off, n)
	if err != nil {
		t.Fatal(err)
	}
	if ext != nil {
		t.Fatal("range read of a full cache returned an extent")
	}
	if !bytes.Equal(got, data[off:off+n]) {
		t.Fatal("range read returned the wrong bytes")
	}
	wire.PutBuffer(got)
	after := s.Stats()
	if resident(s.rcache, fid) {
		t.Fatal("range read inserted the fragment")
	}
	if lru := lruFIDs(s.rcache); !slices.Equal(lru, order) {
		t.Fatalf("LRU order %v -> %v: a range read must not touch it", order, lru)
	}
	if after.ReadCacheBytes != before.ReadCacheBytes {
		t.Fatalf("occupancy %d -> %d", before.ReadCacheBytes, after.ReadCacheBytes)
	}
	if d := after.ReadBytesDisk - before.ReadBytesDisk; d != n {
		t.Fatalf("ReadBytesDisk grew by %d, want %d (the range, not the extent)", d, n)
	}
	if after.ReadMisses != before.ReadMisses+1 || after.ReadHits != before.ReadHits {
		t.Fatalf("hits/misses %d/%d -> %d/%d, want one more miss",
			before.ReadHits, before.ReadMisses, after.ReadHits, after.ReadMisses)
	}

	// The response frame of a range read is the uncached path's frame.
	if got, want := mustEncodeRead(t, s, fid, off, n), mustEncodeRead(t, plain, fid, off, n); !bytes.Equal(got, want) {
		t.Fatal("range-read frame differs from the uncached frame")
	}
	if resident(s.rcache, fid) {
		t.Fatal("second range read inserted the fragment")
	}
}

// The partial read that brings a fragment's running total to its size
// fills the extent; one byte short does not.
func TestPartialReadsEarnFillAtExtentSize(t *testing.T) {
	s := newFullCacheStore(t, 4)
	fid := wire.MakeFID(1, 0)
	data := storeRandom(t, s, fid, admissionFrag)

	var off uint32
	read := func(n uint32) bool {
		t.Helper()
		got, cached := mustReadExtent(t, s, fid, off%admissionFrag, n)
		if !bytes.Equal(got, data[off%admissionFrag:off%admissionFrag+n]) {
			t.Fatalf("read [%d,+%d) returned the wrong bytes", off%admissionFrag, n)
		}
		off += n
		return cached
	}
	for i := 0; i < 15; i++ {
		if read(4 << 10) {
			t.Fatalf("partial read %d (total %d of %d) filled the extent", i, off, admissionFrag)
		}
	}
	if read(4<<10 - 1) {
		t.Fatal("read reaching size-1 filled the extent")
	}
	diskBefore := s.Stats().ReadBytesDisk
	if !read(1) || !resident(s.rcache, fid) {
		t.Fatal("read reaching the extent size did not fill it")
	}
	if d := s.Stats().ReadBytesDisk - diskBefore; d != admissionFrag {
		t.Fatalf("the filling read cost %d disk bytes, want the extent (%d)", d, admissionFrag)
	}
	if lru := lruFIDs(s.rcache); len(lru) != 2 || lru[0] != fid || lru[1] != wire.MakeFID(9, 1) {
		t.Fatalf("after the fill the LRU is %v, want [%v %v]", lru, fid, wire.MakeFID(9, 1))
	}
	hits := s.Stats().ReadHits
	if !read(4 << 10) {
		t.Fatal("read after the fill was not served from the extent")
	}
	if s.Stats().ReadHits != hits+1 {
		t.Fatal("read after the fill was not a hit")
	}
	if len(s.rcache.partial) != 0 {
		t.Fatalf("partial totals survive the fill: %v", s.rcache.partial)
	}
}

// fragio reads a fragment as a header probe followed by a payload fetch
// of the rest; on a full cache the pair fills the extent exactly once.
func TestHeaderProbeThenPayloadFillsOnce(t *testing.T) {
	const header = 192
	s := newFullCacheStore(t, 4)
	fid := wire.MakeFID(1, 0)
	data := storeRandom(t, s, fid, admissionFrag)

	before := s.Stats()
	if got, cached := mustReadExtent(t, s, fid, 0, header); cached || !bytes.Equal(got, data[:header]) {
		t.Fatalf("header probe: cached=%v, bytes ok=%v; want a range read of the header", cached, bytes.Equal(got, data[:header]))
	}
	if got, cached := mustReadExtent(t, s, fid, header, admissionFrag-header); !cached || !bytes.Equal(got, data[header:]) {
		t.Fatalf("payload fetch: cached=%v, bytes ok=%v; want the fill", cached, bytes.Equal(got, data[header:]))
	}
	mid := s.Stats()
	if d := mid.ReadBytesDisk - before.ReadBytesDisk; d != header+admissionFrag {
		t.Fatalf("probe+fetch read %d disk bytes, want %d (probe range + one fill)", d, header+admissionFrag)
	}
	mustReadExtent(t, s, fid, 0, header)
	mustReadExtent(t, s, fid, header, admissionFrag-header)
	after := s.Stats()
	if after.ReadBytesDisk != mid.ReadBytesDisk || after.ReadHits != mid.ReadHits+2 {
		t.Fatal("second probe+fetch was not served from the filled extent")
	}
}

// A cache smaller than an extent never fills it: every read is a range
// read of exactly its bytes, however many reads add up past the
// fragment's size, and nothing stays resident. A fill the cache cannot
// keep would be a whole-fragment disk read thrown away.
func TestOversizedExtentReadsOnlyRanges(t *testing.T) {
	s := newSizedStore(t, 4096, 1000)
	fid := wire.MakeFID(1, 0)
	data := storeRandom(t, s, fid, 4000)
	for i := uint32(0); i < 8; i++ {
		off := i % 4 * 1000
		got, cached := mustReadExtent(t, s, fid, off, 1000)
		if cached {
			t.Fatalf("read %d: an extent larger than the cache was filled", i)
		}
		if !bytes.Equal(got, data[off:off+1000]) {
			t.Fatalf("read %d returned the wrong bytes", i)
		}
	}
	st := s.Stats()
	if st.ReadBytesDisk != 8*1000 {
		t.Fatalf("ReadBytesDisk = %d, want %d: the bytes requested", st.ReadBytesDisk, 8*1000)
	}
	if st.ReadCacheBytes != 0 || resident(s.rcache, fid) || len(s.rcache.partial) != 0 {
		t.Fatalf("%d bytes resident, %d partial totals: an oversized extent left state behind",
			st.ReadCacheBytes, len(s.rcache.partial))
	}
}

// A recycled slot starts the partial-read total again from zero: the
// bytes counted against the old fragment do not buy the new one a fill.
func TestPartialTotalResetsOnSlotRecycle(t *testing.T) {
	s := newFullCacheStore(t, 3) // one free slot: Delete + Store reuses it
	fid := wire.MakeFID(1, 0)
	storeRandom(t, s, fid, admissionFrag)
	slot := s.bySID[fid]
	gen := s.gen[slot]
	for i := uint32(0); i < 15; i++ {
		if _, cached := mustReadExtent(t, s, fid, i*4<<10, 4<<10); cached {
			t.Fatal("partial read filled early")
		}
	}
	if err := s.Delete(1, fid); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x7E}, admissionFrag)
	if err := s.Store(fid, data, false, nil); err != nil {
		t.Fatal(err)
	}
	if s.bySID[fid] != slot || s.gen[slot] == gen {
		t.Fatalf("setup: slot %d gen %d -> slot %d gen %d, want the same slot at a new generation",
			slot, gen, s.bySID[fid], s.gen[slot])
	}
	got, cached := mustReadExtent(t, s, fid, 60<<10, 4<<10)
	if cached || resident(s.rcache, fid) {
		t.Fatal("the old fragment's partial total filled the new one")
	}
	if !bytes.Equal(got, data[60<<10:]) {
		t.Fatal("read of the recycled slot returned the wrong bytes")
	}

	// The (slot, gen) stamp alone resets the total, without Delete's
	// eager drop: a total counted under an older generation is ignored.
	rc := s.rcache
	if rc.admit(fid, slot, gen, admissionFrag-1, admissionFrag) {
		t.Fatal("admit filled on size-1 bytes")
	}
	if rc.admit(fid, slot, gen+1, 1, admissionFrag) {
		t.Fatal("a total stamped with an old generation bought a fill")
	}
	if !rc.admit(fid, slot, gen+1, admissionFrag-1, admissionFrag) {
		t.Fatal("a total reaching size under one stamp did not fill")
	}
}

// Partial reads racing Delete and re-Store never return torn or foreign
// bytes, and once every fragment is deleted no partial total is left.
// Run under -race.
func TestConcurrentPartialReadsRacingDelete(t *testing.T) {
	const frags, rounds, readers = 4, 200, 4
	s := newFullCacheStore(t, 2+frags)
	fill := func(seq uint64, v int) []byte {
		return bytes.Repeat([]byte{byte(seq<<4) | byte(v&0x0f)}, admissionFrag)
	}
	for seq := uint64(0); seq < frags; seq++ {
		if err := s.Store(wire.MakeFID(1, seq), fill(seq, 0), false, nil); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	stop := make(chan struct{}) // closed once the writer is done
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seq := uint64((i + r) % frags)
				off := uint32(i*4<<10) % admissionFrag
				data, _, err := s.Read(1, wire.MakeFID(1, seq), off, 4<<10)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					errc <- err
					return
				}
				first := data[0]
				torn := first>>4 != byte(seq) || bytes.Count(data, []byte{first}) != len(data)
				wire.PutBuffer(data)
				if torn {
					errc <- fmt.Errorf("fragment %d: torn or foreign read (first byte %#x)", seq, first)
					return
				}
			}
		}(r)
	}
	go func() {
		defer close(stop)
		for i := 1; i <= rounds; i++ {
			seq := uint64(i % frags)
			fid := wire.MakeFID(1, seq)
			if err := s.Delete(1, fid); err != nil {
				errc <- err
				return
			}
			if err := s.Store(fid, fill(seq, i), false, nil); err != nil {
				errc <- err
				return
			}
		}
	}()
	<-stop
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	for seq := uint64(0); seq < frags; seq++ {
		if err := s.Delete(1, wire.MakeFID(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.rcache.partial); n != 0 {
		t.Fatalf("%d partial totals outlive their deleted fragments: %v", n, s.rcache.partial)
	}
}
