package server

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"swarm/internal/disk"
	"swarm/internal/wire"
)

// storeDiskBytes sizes a disk whose store holds exactly slots full-size
// fragments of fragSize bytes.
func storeDiskBytes(fragSize, slots int) int64 {
	return entryTableOff + int64(slots*unitsPerFragment)*int64(UnitSize(fragSize)+entrySize)
}

func newTestStore(t *testing.T, slots int) (*Store, *disk.MemDisk) {
	t.Helper()
	fragSize := 4096
	d := disk.NewMemDisk(storeDiskBytes(fragSize, slots))
	s, err := Format(d, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// readCopy reads through Store.Read and returns a private copy of the
// bytes, recycling the pooled buffer the read returned.
func readCopy(s *Store, client wire.ClientID, fid wire.FID, off, n uint32) ([]byte, error) {
	data, _, err := s.Read(client, fid, off, n)
	if err != nil {
		return nil, err
	}
	out := bytes.Clone(data)
	wire.PutBuffer(data)
	return out, nil
}

func TestStoreReadRoundTrip(t *testing.T) {
	s, _ := newTestStore(t, 8)
	fid := wire.MakeFID(1, 0)
	data := bytes.Repeat([]byte{0xAA}, 1000)
	if err := s.Store(fid, data, false, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readCopy(s, 1, fid, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data mismatch")
	}
	// Partial read.
	got, err = readCopy(s, 1, fid, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[100:150]) {
		t.Fatal("partial read mismatch")
	}
}

func TestStoreDuplicateRejected(t *testing.T) {
	s, _ := newTestStore(t, 8)
	fid := wire.MakeFID(1, 0)
	if err := s.Store(fid, []byte("a"), false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(fid, []byte("b"), false, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate store: %v", err)
	}
}

func TestStoreTooLarge(t *testing.T) {
	s, _ := newTestStore(t, 8)
	if err := s.Store(wire.MakeFID(1, 0), make([]byte, 5000), false, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized store: %v", err)
	}
}

func TestStoreNoSpace(t *testing.T) {
	s, _ := newTestStore(t, 2)
	full := make([]byte, s.FragmentSize())
	total := int(s.Stats().TotalSlots)
	if total != 2 {
		t.Fatalf("TotalSlots = %d, want 2", total)
	}
	for i := 0; i < total; i++ {
		if err := s.Store(wire.MakeFID(1, uint64(i)), full, false, nil); err != nil {
			t.Fatalf("store %d of %d: %v", i, total, err)
		}
	}
	if st := s.Stats(); st.FreeSlots != 0 {
		t.Fatalf("full server reports %d free slots", st.FreeSlots)
	}
	// Not even one unit is left.
	if err := s.Store(wire.MakeFID(1, 99), []byte("x"), false, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("store into full server: %v", err)
	}
	// Deleting frees a slot.
	if err := s.Delete(1, wire.MakeFID(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(wire.MakeFID(1, 99), full, false, nil); err != nil {
		t.Fatalf("store after delete: %v", err)
	}
}

// Slots count capacity, not fragments: a one-unit fragment takes a
// sixteenth of a slot, so 16 × TotalSlots of them fit exactly.
func TestStoreOneUnitFragmentsFill(t *testing.T) {
	s, d := newTestStore(t, 2)
	unit := UnitSize(s.FragmentSize())
	n := unitsPerFragment * int(s.Stats().TotalSlots)
	for i := 0; i < n; i++ {
		fid := wire.MakeFID(1, uint64(i))
		if err := s.Store(fid, bytes.Repeat([]byte{byte(i)}, unit), false, nil); err != nil {
			t.Fatalf("store %d of %d one-unit fragments: %v", i, n, err)
		}
	}
	if err := s.Store(wire.MakeFID(1, uint64(n)), []byte("x"), false, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("store past %d one-unit fragments: %v", n, err)
	}
	st := s.Stats()
	if st.FreeSlots != 0 || int(st.UnitsHeld) != n || int(st.Fragments) != n {
		t.Fatalf("stats after filling: %+v", st)
	}
	s2, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := readCopy(s2, 1, wire.MakeFID(1, uint64(i)), 0, uint32(unit))
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, unit)) {
			t.Fatalf("one-unit fragment %d after reopen: %v", i, err)
		}
	}
}

func TestReadAbsentFragment(t *testing.T) {
	s, _ := newTestStore(t, 4)
	if _, err := readCopy(s, 1, wire.MakeFID(1, 0), 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read absent: %v", err)
	}
}

func TestReadOutOfRange(t *testing.T) {
	s, _ := newTestStore(t, 4)
	fid := wire.MakeFID(1, 0)
	if err := s.Store(fid, make([]byte, 100), false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := readCopy(s, 1, fid, 50, 51); !errors.Is(err, ErrBadRange) {
		t.Fatalf("read past end: %v", err)
	}
}

func TestDeleteAbsent(t *testing.T) {
	s, _ := newTestStore(t, 4)
	if err := s.Delete(1, wire.MakeFID(1, 0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete absent: %v", err)
	}
}

func TestPreallocThenStore(t *testing.T) {
	s, _ := newTestStore(t, 2)
	fid := wire.MakeFID(1, 0)
	if err := s.Prealloc(fid); err != nil {
		t.Fatal(err)
	}
	// Preallocated fragments are invisible to reads and Has.
	if _, found := s.Has(fid); found {
		t.Fatal("preallocated fragment visible")
	}
	if _, err := readCopy(s, 1, fid, 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read preallocated: %v", err)
	}
	if err := s.Store(fid, []byte("data"), false, nil); err != nil {
		t.Fatalf("store into prealloc: %v", err)
	}
	if size, found := s.Has(fid); !found || size != 4 {
		t.Fatalf("Has = (%d,%v)", size, found)
	}
	// Double prealloc fails.
	if err := s.Prealloc(fid); !errors.Is(err, ErrExists) {
		t.Fatalf("double prealloc: %v", err)
	}
}

func TestPreallocReservesSpace(t *testing.T) {
	s, _ := newTestStore(t, 2)
	full := make([]byte, s.FragmentSize())
	total := int(s.Stats().TotalSlots)
	for i := 0; i < total; i++ {
		if err := s.Prealloc(wire.MakeFID(1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Prealloc(wire.MakeFID(2, 1)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("prealloc on a fully preallocated server: %v", err)
	}
	if err := s.Store(wire.MakeFID(2, 0), []byte("x"), false, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("store into fully preallocated server: %v", err)
	}
	// But the preallocated FIDs can still be stored, full-size.
	for i := 0; i < total; i++ {
		if err := s.Store(wire.MakeFID(1, uint64(i)), full, false, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// A Store into a reservation gives back the units its data does not
// fill, durably: the next Open sees the same free space.
func TestPreallocReleasesTail(t *testing.T) {
	s, d := newTestStore(t, 2)
	unit := UnitSize(s.FragmentSize())
	fid := wire.MakeFID(1, 0)
	if err := s.Prealloc(fid); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.UnitsHeld != unitsPerFragment || st.FreeSlots != 1 {
		t.Fatalf("after prealloc: %+v", st)
	}
	if err := s.Store(fid, make([]byte, 3*unit-1), false, nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.UnitsHeld != 3 {
		t.Fatalf("store into reservation holds %d units, want 3", st.UnitsHeld)
	}
	s2, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.UnitsHeld != 3 || st.Fragments != 1 {
		t.Fatalf("after reopen: %+v", st)
	}
}

func TestLastMarked(t *testing.T) {
	s, _ := newTestStore(t, 8)
	if _, found := s.LastMarked(1); found {
		t.Fatal("LastMarked on empty store")
	}
	must := func(fid wire.FID, mark bool) {
		t.Helper()
		if err := s.Store(fid, []byte("x"), mark, nil); err != nil {
			t.Fatal(err)
		}
	}
	must(wire.MakeFID(1, 0), true)
	must(wire.MakeFID(1, 1), false)
	must(wire.MakeFID(1, 2), true)
	must(wire.MakeFID(1, 3), false)
	must(wire.MakeFID(2, 9), true) // other client
	fid, found := s.LastMarked(1)
	if !found || fid != wire.MakeFID(1, 2) {
		t.Fatalf("LastMarked = (%v,%v), want 1/2", fid, found)
	}
	fid, found = s.LastMarked(2)
	if !found || fid != wire.MakeFID(2, 9) {
		t.Fatalf("LastMarked(2) = (%v,%v)", fid, found)
	}
}

func TestListFIDs(t *testing.T) {
	s, _ := newTestStore(t, 8)
	fids := []wire.FID{wire.MakeFID(1, 2), wire.MakeFID(1, 0), wire.MakeFID(2, 1)}
	for _, f := range fids {
		if err := s.Store(f, []byte("x"), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List(1)
	if len(got) != 2 || got[0] != wire.MakeFID(1, 0) || got[1] != wire.MakeFID(1, 2) {
		t.Fatalf("List(1) = %v", got)
	}
	if all := s.List(0); len(all) != 3 {
		t.Fatalf("List(0) = %v", all)
	}
}

func TestStoreReopenRecoversState(t *testing.T) {
	s, d := newTestStore(t, 8)
	fidA := wire.MakeFID(1, 0)
	fidB := wire.MakeFID(1, 1)
	if err := s.Store(fidA, []byte("aaa"), true, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(fidB, []byte("bbb"), false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1, fidB); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	data, err := readCopy(s2, 1, fidA, 0, 3)
	if err != nil || string(data) != "aaa" {
		t.Fatalf("reopened read = %q, %v", data, err)
	}
	if _, found := s2.Has(fidB); found {
		t.Fatal("deleted fragment resurrected")
	}
	if fid, found := s2.LastMarked(1); !found || fid != fidA {
		t.Fatalf("reopened LastMarked = (%v,%v)", fid, found)
	}
	if s2.Stats().Fragments != 1 {
		t.Fatalf("reopened fragments = %d", s2.Stats().Fragments)
	}
}

// TestStoreAtomicityUnderCrash simulates a crash between the data write
// and the slot-entry commit: the fragment must not exist after recovery.
func TestStoreAtomicityUnderCrash(t *testing.T) {
	s, d := newTestStore(t, 8)
	fid := wire.MakeFID(1, 0)
	// Snapshot before any store, then store and snapshot after the data
	// write but *before* the entry commit by replaying the write pattern:
	// easiest honest simulation is snapshot-before-commit via FailWrites
	// on the entry region. Instead we capture the pre-store snapshot,
	// store fully, then restore only the entry table from the pre-store
	// snapshot — exactly the disk state of a crash after the data sync.
	pre := d.Snapshot()
	if err := s.Store(fid, []byte("half-written"), false, nil); err != nil {
		t.Fatal(err)
	}
	post := d.Snapshot()
	crash := make([]byte, len(post))
	copy(crash, post)
	// Entry table occupies [entryTableOff, slotsOff): restore it to the
	// pre-store image, keeping the fragment data bytes in place.
	copy(crash[entryTableOff:s.dataOff], pre[entryTableOff:s.dataOff])
	d.Restore(crash)

	s2, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, found := s2.Has(fid); found {
		t.Fatal("fragment visible after simulated torn store")
	}
	if s2.Stats().FreeSlots != s2.Stats().TotalSlots {
		t.Fatalf("slot leaked: %+v", s2.Stats())
	}
}

// TestOpenToleratesTornEntry writes garbage into a slot entry and checks
// that Open treats it as free rather than failing.
func TestOpenToleratesTornEntry(t *testing.T) {
	s, d := newTestStore(t, 4)
	if err := s.Store(wire.MakeFID(1, 0), []byte("ok"), false, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt slot entry 1 with a valid magic but bad CRC.
	garbage := make([]byte, entrySize)
	copy(garbage, s.ents[0].encode(s.nonce)[:8])
	garbage[20] = 0xFF
	if err := d.WriteAt(garbage, entryTableOff+entrySize); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Fragments != 1 {
		t.Fatalf("fragments = %d, want 1", s2.Stats().Fragments)
	}
}

func TestFormatTooSmallDisk(t *testing.T) {
	d := disk.NewMemDisk(1024)
	if _, err := Format(d, Config{FragmentSize: 1 << 20}); err == nil {
		t.Fatal("format of tiny disk succeeded")
	}
}

func TestOpenRejectsUnformattedDisk(t *testing.T) {
	d := disk.NewMemDisk(1 << 20)
	if _, err := Open(d); !errors.Is(err, ErrCorruptMeta) {
		t.Fatalf("open unformatted: %v", err)
	}
}

func TestStoreWriteFailureLeavesSlotFree(t *testing.T) {
	s, d := newTestStore(t, 4)
	boom := errors.New("boom")
	d.FailWrites(boom)
	if err := s.Store(wire.MakeFID(1, 0), []byte("x"), false, nil); !errors.Is(err, boom) {
		t.Fatalf("store with failing disk: %v", err)
	}
	d.FailWrites(nil)
	st := s.Stats()
	if st.FreeSlots != st.TotalSlots {
		t.Fatalf("slot leaked after failed store: %+v", st)
	}
	if err := s.Store(wire.MakeFID(1, 0), []byte("x"), false, nil); err != nil {
		t.Fatalf("store after failure cleared: %v", err)
	}
}

func TestSlotEntryRoundTrip(t *testing.T) {
	ent := fragEntry{
		fid:   wire.MakeFID(5, 123),
		size:  4096,
		flags: flagUsed | flagMarked,
		ranges: []wire.ACLRange{
			{Off: 0, Len: 100, AID: 1},
			{Off: 100, Len: 200, AID: 2},
		},
	}
	got, err := decodeFragEntry(ent.encode(7), 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.fid != ent.fid || got.size != ent.size || got.flags != ent.flags {
		t.Fatalf("roundtrip = %+v", got)
	}
	if len(got.ranges) != 2 || got.ranges[1] != ent.ranges[1] {
		t.Fatalf("ranges = %v", got.ranges)
	}
}

// Property: slot entries roundtrip for arbitrary field values.
func TestQuickSlotEntryRoundTrip(t *testing.T) {
	f := func(fid uint64, size uint32, marked bool, nRanges uint8) bool {
		flags := uint16(flagUsed)
		if marked {
			flags |= flagMarked
		}
		ent := fragEntry{fid: wire.FID(fid), size: size, flags: flags}
		for i := uint8(0); i < nRanges%maxACLRanges; i++ {
			ent.ranges = append(ent.ranges, wire.ACLRange{Off: uint32(i), Len: uint32(i) * 2, AID: wire.AID(i)})
		}
		got, err := decodeFragEntry(ent.encode(7), 7)
		if err != nil {
			return false
		}
		if got.fid != ent.fid || got.size != ent.size || got.flags != ent.flags || len(got.ranges) != len(ent.ranges) {
			return false
		}
		for i := range got.ranges {
			if got.ranges[i] != ent.ranges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// cacheCase is one extent cache size a read test runs under.
type cacheCase struct {
	name     string
	capBytes int64
}

// guardCaches are the extent caches the read-after-free guards run
// under: capacity 0 (every read a range read), one that holds the
// fragment (a whole-extent fill, then hits), one that holds exactly one
// extent (each fill evicts the extent other readers may be copying
// from), and one smaller than the fragment (range reads only).
func guardCaches(fragSize int) []cacheCase {
	return []cacheCase{
		{"capacity0", 0},
		{"holds", int64(4 * fragSize)},
		{"one", int64(fragSize)},
		{"smaller", int64(fragSize / 2)},
	}
}

// Regression for the read-after-free race: Store.Read used to drop the
// lock before the disk read, so a concurrent Delete + Store could
// recycle the slot and hand the reader another fragment's bytes. The
// hook provokes exactly that interleaving; the generation check must
// detect it and report the FID gone rather than return foreign data —
// whether the read is a range read or a whole-extent fill.
func TestReadAfterFreeSlotReuse(t *testing.T) {
	fragSize := 4096
	for _, tc := range guardCaches(fragSize) {
		t.Run(tc.name, func(t *testing.T) {
			slots := 1
			d := disk.NewMemDisk(storeDiskBytes(fragSize, slots))
			hd := &hookDisk{Disk: d}
			s, err := Format(hd, Config{FragmentSize: fragSize})
			if err != nil {
				t.Fatal(err)
			}
			s.SetReadCache(tc.capBytes, 0)
			fidA := wire.MakeFID(1, 1)
			fidB := wire.MakeFID(1, 2)
			dataA := bytes.Repeat([]byte{'A'}, fragSize)
			dataB := bytes.Repeat([]byte{'B'}, fragSize)
			if err := s.Store(fidA, dataA, false, nil); err != nil {
				t.Fatal(err)
			}

			// Between Read's slot lookup and its disk read: delete A and
			// store B into the (single) recycled slot.
			var once sync.Once
			hook := func(p []byte, off int64) {
				if off < s.dataOff {
					return // metadata read, not fragment data
				}
				once.Do(func() {
					if err := s.Delete(1, fidA); err != nil {
						t.Errorf("racing delete: %v", err)
					}
					if err := s.Store(fidB, dataB, false, nil); err != nil {
						t.Errorf("racing store: %v", err)
					}
				})
			}
			hd.onRead.Store(&hook)

			got, err := readCopy(s, 1, fidA, 0, uint32(fragSize))
			if err == nil {
				if bytes.Equal(got, dataB) {
					t.Fatal("read-after-free: fragment A read returned fragment B's bytes")
				}
				t.Fatalf("read of deleted fragment succeeded with unexpected data %x..", got[0])
			}
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("read across slot reuse = %v, want ErrNotFound", err)
			}
			// B must be readable and intact.
			hd.onRead.Store(nil)
			got, err = readCopy(s, 1, fidB, 0, uint32(fragSize))
			if err != nil || !bytes.Equal(got, dataB) {
				t.Fatalf("fragment B after reuse: %v", err)
			}
		})
	}
}

// Stress variant for the race detector: one slot, a writer cycling
// store→delete, and readers that must only ever observe a fragment's own
// bytes or ErrNotFound, through range reads, fills and hits alike. Every
// fourth fragment-data read waits, between the reader's lookup and its
// disk read, until the writer has recycled the slot (or 20 ms passed), so
// the run reaches the read-after-free window the generation check
// guards rather than hoping the scheduler finds it.
func TestReadDeleteStoreRaceStress(t *testing.T) {
	fragSize := 512
	for _, tc := range guardCaches(fragSize) {
		t.Run(tc.name, func(t *testing.T) {
			slots := 1
			hd := &hookDisk{Disk: disk.NewMemDisk(storeDiskBytes(fragSize, slots))}
			s, err := Format(hd, Config{FragmentSize: fragSize})
			if err != nil {
				t.Fatal(err)
			}
			s.SetReadCache(tc.capBytes, 0)
			pattern := func(seq uint64) []byte {
				return bytes.Repeat([]byte{byte(seq*37 + 11)}, fragSize)
			}
			var cur atomic.Uint64 // latest stored seq, 0 = none yet
			var reads, recycled atomic.Int64
			hook := func(p []byte, off int64) {
				if off < s.dataOff || reads.Add(1)%4 != 0 {
					return
				}
				seen := cur.Load()
				for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); {
					if cur.Load() != seen {
						recycled.Add(1)
						return
					}
					runtime.Gosched()
				}
			}
			hd.onRead.Store(&hook)
			stop := make(chan struct{})
			var wg sync.WaitGroup

			wg.Add(1)
			go func() { // writer: store seq, publish, delete, next
				defer wg.Done()
				for seq := uint64(1); ; seq++ {
					select {
					case <-stop:
						return
					default:
					}
					fid := wire.MakeFID(1, seq)
					if err := s.Store(fid, pattern(seq), false, nil); err != nil {
						t.Errorf("store %d: %v", seq, err)
						return
					}
					cur.Store(seq)
					runtime.Gosched() // let readers find seq before it goes
					if err := s.Delete(1, fid); err != nil {
						t.Errorf("delete %d: %v", seq, err)
						return
					}
				}
			}()

			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Readers never block, and the writer's sync
						// coalescer yields to other goroutines: without
						// this, readers hold both CPUs of a small machine
						// for whole time slices and the writer finishes a
						// handful of cycles per run.
						runtime.Gosched()
						seq := cur.Load()
						if seq == 0 {
							continue
						}
						got, err := readCopy(s, 1, wire.MakeFID(1, seq), 0, uint32(fragSize))
						if err != nil {
							if !errors.Is(err, ErrNotFound) {
								t.Errorf("read %d: %v", seq, err)
								return
							}
							continue
						}
						if !bytes.Equal(got, pattern(seq)) {
							t.Errorf("read %d returned foreign bytes %x..", seq, got[0])
							return
						}
					}
				}()
			}
			// Run 50 ms, longer on a loaded machine until some read has
			// reached the window.
			time.Sleep(50 * time.Millisecond)
			for deadline := time.Now().Add(5 * time.Second); recycled.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			close(stop)
			wg.Wait()
			if recycled.Load() == 0 {
				t.Fatalf("no read saw its slot recycled between lookup and disk read (%d reads, %d writer cycles)", reads.Load(), cur.Load())
			}
		})
	}
}
