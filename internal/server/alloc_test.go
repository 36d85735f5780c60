package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"swarm/internal/disk"
	"swarm/internal/wire"
)

func TestFreeRunsMerge(t *testing.T) {
	var f freeRuns
	f.free(0, 4)
	f.free(8, 4)
	f.free(16, 4)
	if want := (freeRuns{{0, 4}, {8, 4}, {16, 4}}); !slices.Equal(f, want) {
		t.Fatalf("runs = %v, want %v", f, want)
	}
	f.free(4, 2)  // merges with the run before
	f.free(14, 2) // merges with the run after
	f.free(6, 2)  // joins both neighbours
	if want := (freeRuns{{0, 12}, {14, 6}}); !slices.Equal(f, want) {
		t.Fatalf("runs = %v, want %v", f, want)
	}
	if got, ok := f.alloc(6); !ok || got != 0 {
		t.Fatalf("alloc(6) = %d, %v; want the lowest run", got, ok)
	}
	if got, ok := f.alloc(6); !ok || got != 6 {
		t.Fatalf("alloc(6) = %d, %v; want the rest of the first run", got, ok)
	}
	if _, ok := f.alloc(7); ok {
		t.Fatal("alloc(7) succeeded with only a 6-unit run free")
	}
	if f.units() != 6 || f.fullSlots() != 0 {
		t.Fatalf("units %d, full slots %d", f.units(), f.fullSlots())
	}
}

// modelFrag is what the churn test expects the store to hold for one
// FID: a reservation, or stored bytes.
type modelFrag struct {
	prealloc bool
	data     []byte
}

// TestAllocatorChurn drives random Store, Delete and Prealloc calls of
// mixed sizes against a model. After every call the units held match
// the model; a full-size Store or a Prealloc succeeds exactly when
// FreeSlots ≥ 1; and after every batch the store is reopened from disk
// and must rebuild the same maps and the same free runs.
func TestAllocatorChurn(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { churn(t, seed) })
	}
}

func churn(t *testing.T, seed uint64) {
	const fragSize, slots = 4096, 6
	d := disk.NewMemDisk(storeDiskBytes(fragSize, slots))
	s, err := Format(d, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	unit := UnitSize(fragSize)
	sizes := []int{0, 1, unit - 1, unit, unit + 1, 3 * unit, fragSize / 2, fragSize - 1, fragSize, fragSize}
	rng := rand.New(rand.NewPCG(seed, 0))
	model := make(map[wire.FID]*modelFrag)
	pick := func(reserved bool) (wire.FID, bool) {
		var fids []wire.FID
		for _, fid := range slices.Sorted(maps.Keys(model)) {
			if model[fid].prealloc == reserved {
				fids = append(fids, fid)
			}
		}
		if len(fids) == 0 {
			return 0, false
		}
		return fids[rng.IntN(len(fids))], true
	}
	heldUnits := func() int {
		n := 0
		for _, m := range model {
			if m.prealloc {
				n += unitsPerFragment
			} else {
				n += max(1, (len(m.data)+unit-1)/unit)
			}
		}
		return n
	}
	var seq uint64
	stores, full, refused := 0, 0, 0
	for batch := 0; batch < 15; batch++ {
		for op := 0; op < 40; op++ {
			free := s.Stats().FreeSlots
			switch r := rng.IntN(10); {
			case r < 4: // store a new fragment
				seq++
				fid := wire.MakeFID(1, seq)
				data := fragPattern(fid, sizes[rng.IntN(len(sizes))])
				err := s.Store(fid, data, false, nil)
				if len(data) == fragSize && (err == nil) != (free >= 1) {
					t.Fatalf("full-size store with FreeSlots %d: %v", free, err)
				}
				switch {
				case err == nil:
					model[fid] = &modelFrag{data: data}
					stores++
					if len(data) == fragSize {
						full++
					}
				case errors.Is(err, ErrNoSpace):
					refused++
				default:
					t.Fatalf("store %v: %v", fid, err)
				}
			case r < 6: // delete a fragment or a reservation
				if fid, ok := pick(rng.IntN(3) == 0); ok {
					if err := s.Delete(1, fid); err != nil {
						t.Fatalf("delete %v: %v", fid, err)
					}
					delete(model, fid)
				}
			case r < 8: // reserve
				seq++
				fid := wire.MakeFID(1, seq)
				err := s.Prealloc(fid)
				if (err == nil) != (free >= 1) {
					t.Fatalf("prealloc with FreeSlots %d: %v", free, err)
				}
				if err == nil {
					model[fid] = &modelFrag{prealloc: true}
				}
			default: // fill a reservation
				if fid, ok := pick(true); ok {
					data := fragPattern(fid, sizes[rng.IntN(len(sizes))])
					if err := s.Store(fid, data, false, nil); err != nil {
						t.Fatalf("store into reservation %v: %v", fid, err)
					}
					model[fid] = &modelFrag{data: data}
					stores++
				}
			}
			if st := s.Stats(); int(st.UnitsHeld) != heldUnits() || int(st.Fragments) != len(model) {
				t.Fatalf("batch %d op %d: store holds %d units in %d extents, model %d in %d",
					batch, op, st.UnitsHeld, st.Fragments, heldUnits(), len(model))
			}
		}
		checkAgainstModel(t, s, model)
		s2, err := Open(d)
		if err != nil {
			t.Fatalf("reopen after batch %d: %v", batch, err)
		}
		if !maps.Equal(s2.bySID, s.bySID) || !slices.Equal(s2.free, s.free) {
			t.Fatalf("reopen after batch %d rebuilt other maps:\nlive   %v %v\nreopen %v %v",
				batch, s.bySID, s.free, s2.bySID, s2.free)
		}
		checkAgainstModel(t, s2, model)
		s = s2
	}
	// The run must have exercised both outcomes of the admission bound.
	if full == 0 || refused == 0 || stores < 100 {
		t.Fatalf("weak run: %d stores, %d full-size, %d refused", stores, full, refused)
	}
}

func checkAgainstModel(t *testing.T, s *Store, model map[wire.FID]*modelFrag) {
	t.Helper()
	stored := 0
	for fid, m := range model {
		size, found := s.Has(fid)
		if m.prealloc {
			if found {
				t.Fatalf("reservation %v visible", fid)
			}
			continue
		}
		stored++
		if !found || int(size) != len(m.data) {
			t.Fatalf("%v: Has = (%d, %v), want %d bytes", fid, size, found, len(m.data))
		}
		got, err := readCopy(s, 1, fid, 0, size)
		if err != nil || !bytes.Equal(got, m.data) {
			t.Fatalf("%v reads back wrong: %v", fid, err)
		}
	}
	if n := len(s.List(0)); n != stored {
		t.Fatalf("List holds %d fragments, model %d", n, stored)
	}
}

// Format gives the disk a new nonce: entries written under the old one
// are free, though Format never touched the entry table.
func TestFormatForgetsEarlierEntries(t *testing.T) {
	s, d := newTestStore(t, 2)
	for i := 0; i < 3; i++ {
		if err := s.Store(wire.MakeFID(1, uint64(i)), []byte("old"), true, nil); err != nil {
			t.Fatal(err)
		}
	}
	table := make([]byte, 3*entrySize)
	if err := d.ReadAt(table, entryTableOff); err != nil {
		t.Fatal(err)
	}
	s2, err := Format(d, Config{FragmentSize: s.FragmentSize()})
	if err != nil {
		t.Fatal(err)
	}
	after := make([]byte, len(table))
	if err := d.ReadAt(after, entryTableOff); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, table) {
		t.Fatal("Format rewrote the entry table")
	}
	if s2.nonce == s.nonce {
		t.Fatal("Format reused the nonce")
	}
	for _, st := range []*Store{s2, mustOpen(t, d)} {
		if got := st.Stats(); got.Fragments != 0 || got.UnitsHeld != 0 || got.FreeSlots != got.TotalSlots {
			t.Fatalf("reformatted store: %+v", got)
		}
		if _, found := st.LastMarked(1); found {
			t.Fatal("a fragment of the earlier format survived")
		}
	}
}

func mustOpen(t *testing.T, d disk.Disk) *Store {
	t.Helper()
	s, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenRejectsOverlappingExtents(t *testing.T) {
	s, d := newTestStore(t, 2)
	unit := UnitSize(s.FragmentSize())
	if err := s.Store(wire.MakeFID(1, 0), make([]byte, 3*unit), false, nil); err != nil {
		t.Fatal(err)
	}
	// An entry starting inside the first fragment's three units.
	inside := fragEntry{fid: wire.MakeFID(1, 1), size: 1, flags: flagUsed}
	if err := d.WriteAt(inside.encode(s.nonce), s.entryOff(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(d); !errors.Is(err, ErrCorruptMeta) {
		t.Fatalf("open with overlapping extents: %v", err)
	}
}

func TestOpenRejectsOtherVersion(t *testing.T) {
	_, d := newTestStore(t, 1)
	sb := make([]byte, superblockSize)
	if err := d.ReadAt(sb, 0); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(sb[4:], 1)
	binary.LittleEndian.PutUint32(sb[superblockSize-4:], crc32.ChecksumIEEE(sb[:superblockSize-4]))
	if err := d.WriteAt(sb, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(d); !errors.Is(err, ErrCorruptMeta) {
		t.Fatalf("open of a version-1 superblock: %v", err)
	}
}

// A FID committed twice keeps its lower extent; Open clears the other
// entry before its units can be reused, so a later Open sees no overlap.
func TestOpenClearsDuplicateEntry(t *testing.T) {
	s, d := newTestStore(t, 1)
	fid := wire.MakeFID(1, 0)
	if err := s.Store(fid, []byte("first"), false, nil); err != nil {
		t.Fatal(err)
	}
	dup := fragEntry{fid: fid, size: 5, flags: flagUsed}
	if err := d.WriteAt(dup.encode(s.nonce), s.entryOff(4)); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, d)
	if s2.bySID[fid] != 0 || s2.Stats().UnitsHeld != 1 {
		t.Fatalf("duplicate kept: first unit %d, %d units held", s2.bySID[fid], s2.Stats().UnitsHeld)
	}
	buf := make([]byte, entrySize)
	if err := d.ReadAt(buf, s.entryOff(4)); err != nil {
		t.Fatal(err)
	}
	if ent, err := decodeFragEntry(buf, s.nonce); err != nil || ent.used() {
		t.Fatalf("duplicate entry not cleared: %+v, %v", ent, err)
	}
	// Fill units 1..15 with a neighbour spanning unit 4, then reopen.
	if err := s2.Store(wire.MakeFID(1, 1), make([]byte, 15*UnitSize(s.FragmentSize())), false, nil); err != nil {
		t.Fatal(err)
	}
	if got := mustOpen(t, d).Stats(); got.Fragments != 2 || got.FreeSlots != 0 {
		t.Fatalf("after reuse: %+v", got)
	}
}

// newCrashStore formats a store over a power-cuttable disk: writes sit in
// cd's volatile cache until a Sync, and hd lets a test cut the power.
func newCrashStore(t *testing.T, slots int) (*Store, *hookDisk, *disk.CrashDisk, *disk.MemDisk) {
	t.Helper()
	mem := disk.NewMemDisk(storeDiskBytes(4096, slots))
	cd := disk.NewCrashDisk(mem)
	hd := &hookDisk{Disk: cd}
	s, err := Format(hd, Config{FragmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return s, hd, cd, mem
}

// cutAt power-cuts cd at the n-th Sync from now.
func cutAt(hd *hookDisk, cd *disk.CrashDisk, n int64) {
	var syncs atomic.Int64
	hook := func() error {
		if syncs.Add(1) == n {
			cd.Crash()
		}
		return nil
	}
	hd.onSync.Store(&hook)
}

// dataWriteAt records the offset of the next write of exactly n bytes.
func dataWriteAt(hd *hookDisk, n int) *atomic.Int64 {
	var at atomic.Int64
	at.Store(-1)
	hook := func(p []byte, off int64) {
		if len(p) == n {
			at.CompareAndSwap(-1, off)
		}
	}
	hd.onWrite.Store(&hook)
	return &at
}

// mustStore stores fragPattern(fid, n) and returns it.
func mustStore(t *testing.T, s *Store, fid wire.FID, n int) []byte {
	t.Helper()
	data := fragPattern(fid, n)
	if err := s.Store(fid, data, false, nil); err != nil {
		t.Fatalf("store %v: %v", fid, err)
	}
	return data
}

// checkExact fails unless every fragment in want reads back byte-exact.
func checkExact(t *testing.T, s *Store, want map[wire.FID][]byte) {
	t.Helper()
	for fid, data := range want {
		got, err := readCopy(s, 1, fid, 0, uint32(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("neighbour %v after the power cut: %v", fid, err)
		}
	}
}

// A power cut in the middle of a Store into a hole between two live
// fragments of the same 16-unit span — at its data barrier (the bytes
// are lost) or its entry barrier (the bytes are durable, the entry is
// not) — leaves both neighbours byte-exact and the new fragment absent.
func TestPowerCutMidStoreBesideNeighbours(t *testing.T) {
	for _, cut := range []int64{1, 2} {
		t.Run(fmt.Sprintf("sync%d", cut), func(t *testing.T) {
			s, hd, cd, mem := newCrashStore(t, 2)
			three := 3 * s.unitSize
			a, x, c, b := wire.MakeFID(1, 1), wire.MakeFID(1, 2), wire.MakeFID(1, 3), wire.MakeFID(1, 4)
			want := map[wire.FID][]byte{a: mustStore(t, s, a, three)}
			mustStore(t, s, x, three)
			want[c] = mustStore(t, s, c, three)
			if err := s.Delete(1, x); err != nil {
				t.Fatal(err)
			}
			at := dataWriteAt(hd, three)
			cutAt(hd, cd, cut)
			if err := s.Store(b, fragPattern(b, three), false, nil); !errors.Is(err, disk.ErrCrashed) {
				t.Fatalf("store across the power cut: %v", err)
			}
			if at.Load() != s.unitOff(3) {
				t.Fatalf("store wrote at %d, want the hole at unit 3 (%d)", at.Load(), s.unitOff(3))
			}
			s2 := mustOpen(t, mem)
			checkExact(t, s2, want)
			if _, found := s2.Has(b); found {
				t.Fatal("fragment cut mid-store is visible")
			}
			if st := s2.Stats(); st.Fragments != 2 || st.UnitsHeld != 6 {
				t.Fatalf("after recovery: %+v", st)
			}
		})
	}
}

// A power cut after a Delete was acked and while a Store reuses its
// units: the deleted fragment stays deleted (its cleared entry was
// durable before the units were reused), the new one is absent, and the
// neighbour is byte-exact. A cut inside the Delete itself leaves the
// fragment whole, since its units were never reused.
func TestPowerCutBetweenDeleteAndReuse(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cut     int64
		inStore bool
	}{
		{"in-delete", 1, false},
		{"reuse-data-barrier", 1, true},
		{"reuse-entry-barrier", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, hd, cd, mem := newCrashStore(t, 1)
			three := 3 * s.unitSize
			a, b, c := wire.MakeFID(1, 1), wire.MakeFID(1, 2), wire.MakeFID(1, 3)
			dataA := mustStore(t, s, a, three)
			want := map[wire.FID][]byte{b: mustStore(t, s, b, three)}
			if !tc.inStore {
				cutAt(hd, cd, tc.cut)
				if err := s.Delete(1, a); !errors.Is(err, disk.ErrCrashed) {
					t.Fatalf("delete across the power cut: %v", err)
				}
				want[a] = dataA
			} else {
				if err := s.Delete(1, a); err != nil {
					t.Fatal(err)
				}
				at := dataWriteAt(hd, three)
				cutAt(hd, cd, tc.cut)
				if err := s.Store(c, fragPattern(c, three), false, nil); !errors.Is(err, disk.ErrCrashed) {
					t.Fatalf("store across the power cut: %v", err)
				}
				if at.Load() != s.unitOff(0) {
					t.Fatalf("store wrote at %d, want the freed units at %d", at.Load(), s.unitOff(0))
				}
			}
			s2 := mustOpen(t, mem)
			checkExact(t, s2, want)
			for _, gone := range []wire.FID{a, c} {
				if _, ok := want[gone]; !ok {
					if _, found := s2.Has(gone); found {
						t.Fatalf("%v visible after the power cut", gone)
					}
				}
			}
			if st := s2.Stats(); int(st.Fragments) != len(want) || int(st.UnitsHeld) != 3*len(want) {
				t.Fatalf("after recovery: %+v", st)
			}
		})
	}
}
