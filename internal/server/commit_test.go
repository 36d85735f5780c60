package server

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarm/internal/disk"
	"swarm/internal/wire"
)

// hookDisk wraps a Disk with settable interception points; tests use it
// to provoke specific interleavings deterministically.
type hookDisk struct {
	disk.Disk
	onRead  atomic.Pointer[func(p []byte, off int64)] // before the read
	onSync  atomic.Pointer[func() error]              // instead-of check before the sync
	onWrite atomic.Pointer[func(p []byte, off int64)] // before the write
}

func (h *hookDisk) ReadAt(p []byte, off int64) error {
	if f := h.onRead.Load(); f != nil {
		(*f)(p, off)
	}
	return h.Disk.ReadAt(p, off)
}

func (h *hookDisk) WriteAt(p []byte, off int64) error {
	if f := h.onWrite.Load(); f != nil {
		(*f)(p, off)
	}
	return h.Disk.WriteAt(p, off)
}

func (h *hookDisk) Sync() error {
	if f := h.onSync.Load(); f != nil {
		if err := (*f)(); err != nil {
			return err
		}
	}
	return h.Disk.Sync()
}

// countingDisk counts physical syncs and can slow them down, widening
// the natural coalescing window deterministically.
type countingDisk struct {
	disk.Disk
	syncDelay time.Duration
	syncs     atomic.Int64
}

func (d *countingDisk) Sync() error {
	d.syncs.Add(1)
	if d.syncDelay > 0 {
		time.Sleep(d.syncDelay)
	}
	return d.Disk.Sync()
}

// --- sync coalescer unit tests ---

// Concurrent barriers must share fsyncs: with the physical sync slowed
// down, N waiters pile up behind the in-flight one and are satisfied by
// a single follow-up sync.
func TestSyncCoalescerSharesFsyncs(t *testing.T) {
	d := &countingDisk{Disk: disk.NewMemDisk(1 << 16), syncDelay: 2 * time.Millisecond}
	c := newSyncCoalescer(d)
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Sync(); err != nil {
				t.Errorf("coalesced sync: %v", err)
			}
		}()
	}
	wg.Wait()
	req, syncs := c.counters()
	if req != callers {
		t.Fatalf("requests = %d, want %d", req, callers)
	}
	if phys := d.syncs.Load(); phys != syncs {
		t.Fatalf("counter mismatch: coalescer says %d syncs, disk saw %d", syncs, phys)
	}
	if syncs >= callers {
		t.Fatalf("no coalescing: %d physical syncs for %d barriers", syncs, req)
	}
}

// A barrier registered while a sync is in flight must NOT be satisfied
// by that sync — its writes may postdate the sync's start. The coalescer
// must issue (or join) a later one.
func TestSyncCoalescerBarrierOrdering(t *testing.T) {
	mem := disk.NewMemDisk(1 << 16)
	cd := disk.NewCrashDisk(mem)
	hd := &hookDisk{Disk: cd}
	c := newSyncCoalescer(hd)

	// First barrier's sync blocks until the late writer has registered.
	registered := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	hook := func() error {
		once.Do(func() { close(registered); <-proceed })
		return nil
	}
	hd.onSync.Store(&hook)

	first := make(chan error)
	go func() { first <- c.Sync() }()
	<-registered

	// Late writer: write, then request a barrier while sync #1 runs.
	if err := cd.WriteAt([]byte("late"), 0); err != nil {
		t.Fatal(err)
	}
	second := make(chan error)
	go func() { second <- c.Sync() }()
	time.Sleep(time.Millisecond) // let the second barrier register
	close(proceed)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	// If the late barrier were satisfied by sync #1 (which flushed the
	// CrashDisk before "late" was written), the write would still be
	// volatile and a crash would lose it.
	cd.Crash()
	got := make([]byte, 4)
	if err := mem.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "late" {
		t.Fatalf("late write lost: barrier returned before a covering sync (got %q)", got)
	}
}

func TestSyncCoalescerPropagatesErrors(t *testing.T) {
	mem := disk.NewMemDisk(1 << 16)
	hd := &hookDisk{Disk: mem}
	boom := errors.New("boom")
	hook := func() error { return boom }
	hd.onSync.Store(&hook)
	c := newSyncCoalescer(hd)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Sync(); !errors.Is(err, boom) {
				t.Errorf("Sync = %v, want boom", err)
			}
		}()
	}
	wg.Wait()
}

// --- group-commit store path ---

func fragPattern(fid wire.FID, n int) []byte {
	data := make([]byte, n)
	seed := byte(fid.Seq()*131 + 7)
	for i := range data {
		data[i] = seed + byte(i)
	}
	return data
}

// Concurrent stores through the group-committed path must all land,
// share fsyncs, and read back intact.
func TestGroupCommitConcurrentStores(t *testing.T) {
	fragSize := 4096
	slots := 64
	base := &countingDisk{Disk: disk.NewMemDisk(storeDiskBytes(fragSize, slots)), syncDelay: 200 * time.Microsecond}
	s, err := Format(base, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	const stores = 48
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= stores {
					return
				}
				fid := wire.MakeFID(1, uint64(i))
				if err := s.Store(fid, fragPattern(fid, fragSize), false, nil); err != nil {
					t.Errorf("store %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for i := 0; i < stores; i++ {
		fid := wire.MakeFID(1, uint64(i))
		got, err := readCopy(s, 1, fid, 0, uint32(fragSize))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, fragPattern(fid, fragSize)) {
			t.Fatalf("fragment %d corrupted by concurrent commit", i)
		}
	}
	st := s.Stats()
	if st.Stores != stores {
		t.Fatalf("Stores = %d, want %d", st.Stores, stores)
	}
	if coalesced := int64(st.SyncRequests) - int64(st.Syncs); coalesced <= 0 {
		t.Fatalf("no coalescing under 8-way concurrency: %+v", st)
	}
	if perStore := float64(st.Syncs) / float64(st.Stores); perStore >= 2 {
		t.Fatalf("syncs/store = %.2f, want < 2 (serial pays exactly 2)", perStore)
	}
	if st.StoreNanos/st.Stores == 0 {
		t.Fatalf("no store latency recorded: %+v", st)
	}
}

// Exactly one of N racing stores of the same FID must win; the rest get
// ErrExists, and the surviving bytes are the winner's.
func TestConcurrentStoresSameFID(t *testing.T) {
	s, _ := newTestStore(t, 8)
	fid := wire.MakeFID(1, 42)
	const racers = 8
	var wg sync.WaitGroup
	var winners atomic.Int64
	var winnerData atomic.Pointer[[]byte]
	for i := 0; i < racers; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 512)
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch err := s.Store(fid, data, false, nil); {
			case err == nil:
				winners.Add(1)
				winnerData.Store(&data)
			case errors.Is(err, ErrExists):
			default:
				t.Errorf("unexpected store error: %v", err)
			}
		}()
	}
	wg.Wait()
	if winners.Load() != 1 {
		t.Fatalf("%d winners for one FID", winners.Load())
	}
	got, err := readCopy(s, 1, fid, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if want := *winnerData.Load(); !bytes.Equal(got, want) {
		t.Fatalf("stored bytes are not the winner's: got %x.., want %x..", got[0], want[0])
	}
}

// --- crash atomicity ---

// A crash after the data barrier but before the entry commit must leave
// nothing: the fragment is unreachable and its slot free after recovery.
func TestCrashBetweenDataSyncAndEntryCommit(t *testing.T) {
	fragSize := 4096
	slots := 8
	mem := disk.NewMemDisk(storeDiskBytes(fragSize, slots))
	cd := disk.NewCrashDisk(mem)
	hd := &hookDisk{Disk: cd}
	s, err := Format(hd, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	// The store path issues two barriers: the data sync, then the entry
	// commit sync. Let the first through; power-cut at the second.
	var syncs atomic.Int64
	hook := func() error {
		if syncs.Add(1) == 2 {
			cd.Crash()
		}
		return nil
	}
	hd.onSync.Store(&hook)

	fid := wire.MakeFID(1, 0)
	if err := s.Store(fid, fragPattern(fid, fragSize), false, nil); !errors.Is(err, disk.ErrCrashed) {
		t.Fatalf("store across power cut = %v, want ErrCrashed", err)
	}

	s2, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, found := s2.Has(fid); found {
		t.Fatal("fragment visible after crash before entry commit")
	}
	if st := s2.Stats(); st.FreeSlots != st.TotalSlots {
		t.Fatalf("slot leaked across crash: %+v", st)
	}
}

// The core group-commit crash proof: many concurrent stores, a power cut
// at an arbitrary moment, then recovery. Every acknowledged store must
// survive whole; everything recovered must be byte-exact; the slot
// accounting must balance. This is the §2.3.1 atomicity contract under
// the new concurrent commit path.
func TestCrashAtomicityConcurrentGroupCommit(t *testing.T) {
	fragSize := 2048
	slots := 256
	mem := disk.NewMemDisk(storeDiskBytes(fragSize, slots))
	cd := disk.NewCrashDisk(mem)
	s, err := Format(cd, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	var acked sync.Map // fid → true, recorded only after Store returned nil
	var seq atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				fid := wire.MakeFID(1, seq.Add(1))
				if err := s.Store(fid, fragPattern(fid, fragSize), false, nil); err != nil {
					return // crashed (or out of space): stop writing
				}
				acked.Store(fid, true)
			}
		}()
	}
	// Let a healthy number of stores commit, then cut the power while
	// others are mid-flight.
	for s.Stats().Stores < 32 {
		time.Sleep(100 * time.Microsecond)
	}
	cd.Crash()
	wg.Wait()

	s2, err := Open(mem)
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	// (a) acknowledged ⇒ recovered, byte-exact.
	nAcked := 0
	acked.Range(func(k, _ any) bool {
		fid := k.(wire.FID)
		nAcked++
		got, err := readCopy(s2, 1, fid, 0, uint32(fragSize))
		if err != nil {
			t.Fatalf("acked fragment %v lost in crash: %v", fid, err)
		}
		if !bytes.Equal(got, fragPattern(fid, fragSize)) {
			t.Fatalf("acked fragment %v corrupted", fid)
		}
		return true
	})
	if nAcked < 32 {
		t.Fatalf("only %d acked stores, want >= 32", nAcked)
	}
	// (b) recovered ⇒ whole and correct (never a torn fragment), and
	// only FIDs that were actually attempted.
	maxSeq := seq.Load()
	recovered := s2.List(0)
	for _, fid := range recovered {
		if fid.Client() != 1 || fid.Seq() > maxSeq {
			t.Fatalf("recovered unknown fragment %v", fid)
		}
		size, _ := s2.Has(fid)
		if int(size) != fragSize {
			t.Fatalf("recovered fragment %v truncated: %d bytes", fid, size)
		}
		got, err := readCopy(s2, 1, fid, 0, uint32(fragSize))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fragPattern(fid, fragSize)) {
			t.Fatalf("recovered fragment %v torn", fid)
		}
	}
	if len(recovered) < nAcked {
		t.Fatalf("recovered %d < acked %d", len(recovered), nAcked)
	}
	// (c) slot accounting balances exactly.
	if st := s2.Stats(); st.FreeSlots+st.Fragments != st.TotalSlots {
		t.Fatalf("slot accounting off after recovery: %+v", st)
	}
}

// Crashing with no stores in flight must be a no-op for recovery.
func TestCrashRecoverIdempotent(t *testing.T) {
	fragSize := 1024
	slots := 8
	mem := disk.NewMemDisk(storeDiskBytes(fragSize, slots))
	cd := disk.NewCrashDisk(mem)
	s, err := Format(cd, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fid := wire.MakeFID(1, uint64(i))
		if err := s.Store(fid, fragPattern(fid, fragSize), i == 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	cd.Crash()
	s2, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.List(0)); got != 3 {
		t.Fatalf("recovered %d fragments, want 3", got)
	}
	if fid, found := s2.LastMarked(1); !found || fid != wire.MakeFID(1, 2) {
		t.Fatalf("LastMarked after recovery = (%v, %v)", fid, found)
	}
}

// Delete must serialize against an in-flight store of the same FID
// rather than freeing the slot out from under it.
func TestDeleteWaitsForInflightStore(t *testing.T) {
	fragSize := 1024
	slots := 4
	mem := disk.NewMemDisk(storeDiskBytes(fragSize, slots))
	hd := &hookDisk{Disk: mem}
	s, err := Format(hd, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	fid := wire.MakeFID(1, 7)
	if err := s.Prealloc(fid); err != nil {
		t.Fatal(err)
	}

	// Stall the store's fragment-data write so a Delete can race it.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hook := func(p []byte, off int64) {
		if off >= s.dataOff {
			once.Do(func() { close(entered); <-release })
		}
	}
	hd.onWrite.Store(&hook)

	storeDone := make(chan error)
	go func() { storeDone <- s.Store(fid, fragPattern(fid, fragSize), false, nil) }()
	<-entered

	delDone := make(chan error)
	go func() { delDone <- s.Delete(1, fid) }()
	// The delete must block until the store commits.
	select {
	case err := <-delDone:
		t.Fatalf("delete did not wait for in-flight store (err=%v)", err)
	case <-time.After(5 * time.Millisecond):
	}
	close(release)
	if err := <-storeDone; err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := <-delDone; err != nil {
		t.Fatalf("delete after store: %v", err)
	}
	if _, found := s.Has(fid); found {
		t.Fatal("fragment still present after delete")
	}
	if st := s.Stats(); st.FreeSlots != st.TotalSlots {
		t.Fatalf("slot accounting off: %+v", st)
	}
}
