package cleaner

import (
	"bytes"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"swarm/internal/core"
	"swarm/internal/disk"
	"swarm/internal/server"
	"swarm/internal/service"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

const testFragSize = 4096

// blobStore is a minimal Swarm service for cleaner tests: named blobs,
// each one block. Its hint is the blob name, so relocations (live and
// crash-replayed) can always find the metadata.
type blobStore struct {
	id  core.ServiceID
	log *core.Log

	mu    sync.Mutex
	blobs map[string]blobMeta // name -> location
	data  map[string][]byte   // name -> contents (for verification)

	demandFn func() error
	demands  int
}

type blobMeta struct {
	addr core.BlockAddr
	size uint32
}

func newBlobStore(id core.ServiceID, log *core.Log) *blobStore {
	return &blobStore{
		id:    id,
		log:   log,
		blobs: make(map[string]blobMeta),
		data:  make(map[string][]byte),
	}
}

func (b *blobStore) ID() core.ServiceID { return b.id }

func (b *blobStore) Put(name string, data []byte) error {
	addr, err := b.log.AppendBlock(b.id, data, []byte(name))
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.blobs[name]; ok {
		if err := b.log.DeleteBlock(old.addr, old.size, b.id); err != nil {
			return err
		}
	}
	b.blobs[name] = blobMeta{addr: addr, size: uint32(len(data))}
	b.data[name] = append([]byte(nil), data...)
	return nil
}

func (b *blobStore) Delete(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	m, ok := b.blobs[name]
	if !ok {
		return errors.New("no blob")
	}
	delete(b.blobs, name)
	delete(b.data, name)
	return b.log.DeleteBlock(m.addr, m.size, b.id)
}

func (b *blobStore) Get(name string) ([]byte, error) {
	b.mu.Lock()
	m, ok := b.blobs[name]
	b.mu.Unlock()
	if !ok {
		return nil, errors.New("no blob")
	}
	return b.log.Read(m.addr, 0, m.size)
}

func (b *blobStore) Checkpoint() error {
	b.mu.Lock()
	e := wire.NewEncoder(64)
	e.U32(uint32(len(b.blobs)))
	for name, m := range b.blobs {
		e.String32(name)
		e.U64(uint64(m.addr.FID))
		e.U32(m.addr.Off)
		e.U32(m.size)
	}
	b.mu.Unlock()
	_, err := b.log.WriteCheckpoint(b.id, e.Bytes())
	return err
}

func (b *blobStore) RestoreCheckpoint(payload []byte) error {
	if payload == nil {
		return nil
	}
	d := wire.NewDecoder(payload)
	n := d.U32()
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := uint32(0); i < n; i++ {
		name := d.String32()
		b.blobs[name] = blobMeta{
			addr: core.BlockAddr{FID: wire.FID(d.U64()), Off: d.U32()},
			size: d.U32(),
		}
	}
	return d.Err()
}

func (b *blobStore) Replay(rec core.ReplayEntry) error {
	switch rec.Kind {
	case core.EntryCreate:
		cr, err := core.DecodeCreateRecord(rec.Payload)
		if err != nil {
			return err
		}
		b.mu.Lock()
		b.blobs[string(cr.Hint)] = blobMeta{addr: cr.Addr, size: cr.Len}
		b.mu.Unlock()
	case core.EntryDelete:
		dr, err := core.DecodeDeleteRecord(rec.Payload)
		if err != nil {
			return err
		}
		b.mu.Lock()
		for name, m := range b.blobs {
			if m.addr == dr.Addr {
				delete(b.blobs, name)
				break
			}
		}
		b.mu.Unlock()
	}
	return nil
}

func (b *blobStore) BlockMoved(old, newAddr core.BlockAddr, length uint32, hint []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	name := string(hint)
	if m, ok := b.blobs[name]; ok && m.addr == old {
		b.blobs[name] = blobMeta{addr: newAddr, size: length}
	}
	return nil
}

func (b *blobStore) BlockLive(addr core.BlockAddr, hint []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	m, ok := b.blobs[string(hint)]
	return ok && m.addr == addr
}

func (b *blobStore) CheckpointDemand() error {
	b.demands++
	if b.demandFn != nil {
		return b.demandFn()
	}
	return nil
}

var _ service.Service = (*blobStore)(nil)

type fixture struct {
	stores []*server.Store
	conns  []transport.ServerConn
	log    *core.Log
	reg    *service.Registry
	blobs  *blobStore
}

func newFixture(t *testing.T, nServers int) *fixture {
	t.Helper()
	f := &fixture{}
	for i := 0; i < nServers; i++ {
		d := disk.NewMemDisk(8 << 20)
		st, err := server.Format(d, server.Config{FragmentSize: testFragSize})
		if err != nil {
			t.Fatal(err)
		}
		f.stores = append(f.stores, st)
		f.conns = append(f.conns, transport.NewLocal(wire.ServerID(i+1), st, 1))
	}
	f.reopen(t)
	return f
}

// reopen simulates a client restart over the same servers.
func (f *fixture) reopen(t *testing.T) {
	t.Helper()
	l, rec, err := core.Open(core.Config{Client: 1, Servers: f.conns, FragmentSize: testFragSize})
	if err != nil {
		t.Fatal(err)
	}
	f.log = l
	f.reg = service.NewRegistry(l)
	f.blobs = newBlobStore(7, l)
	if err := f.reg.Register(f.blobs, rec.Service(7)); err != nil {
		t.Fatal(err)
	}
}

func blobName(i int) string { return "blob-" + strconv.Itoa(i) }

// fillAndDelete writes n blobs then deletes those where del(i) is true,
// creating garbage for the cleaner.
func (f *fixture) fillAndDelete(t *testing.T, n int, size int, del func(int) bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, size)
		if err := f.blobs.Put(blobName(i), data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if del(i) {
			if err := f.blobs.Delete(blobName(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.log.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanerReclaimsGarbageStripes(t *testing.T) {
	f := newFixture(t, 3)
	defer f.log.Close()
	f.fillAndDelete(t, 80, 600, func(i int) bool { return i%4 != 0 }) // 75% garbage
	if err := f.blobs.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	c := New(f.log, f.reg, Config{UtilizationThreshold: 0.6, MaxStripesPerPass: 100})
	cleaned, err := c.CleanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if cleaned == 0 {
		t.Fatal("nothing cleaned")
	}
	st := c.Stats()
	if st.StripesCleaned == 0 || st.BlocksMoved == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Every surviving blob still readable with correct contents.
	for i := 0; i < 80; i += 4 {
		got, err := f.blobs.Get(blobName(i))
		if err != nil {
			t.Fatalf("get %d after clean: %v", i, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 600)) {
			t.Fatalf("blob %d corrupted after clean", i)
		}
	}
}

func TestCleanerFreesServerSlots(t *testing.T) {
	f := newFixture(t, 3)
	defer f.log.Close()
	f.fillAndDelete(t, 60, 800, func(i int) bool { return true }) // all garbage
	if err := f.blobs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, st := range f.stores {
		before += int(st.Stats().FreeSlots)
	}
	c := New(f.log, f.reg, Config{UtilizationThreshold: 0.9, MaxStripesPerPass: 100})
	if _, err := c.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, st := range f.stores {
		after += int(st.Stats().FreeSlots)
	}
	if after <= before {
		t.Fatalf("free slots %d -> %d, expected growth", before, after)
	}
	if c.Stats().BlocksDiscarded == 0 {
		t.Fatal("dead blocks were not discarded")
	}
}

func TestCleanerNothingToClean(t *testing.T) {
	f := newFixture(t, 3)
	defer f.log.Close()
	f.fillAndDelete(t, 40, 600, func(int) bool { return false }) // everything live
	if err := f.blobs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c := New(f.log, f.reg, Config{UtilizationThreshold: 0.2})
	if _, err := c.CleanOnce(); !errors.Is(err, ErrNothingToClean) {
		t.Fatalf("clean full stripes: %v", err)
	}
}

func TestCleanerDemandsCheckpointWhenPinned(t *testing.T) {
	f := newFixture(t, 3)
	defer f.log.Close()
	// Garbage exists, but the service has never checkpointed: the floor
	// pins everything. The demand handler checkpoints, letting the same
	// pass proceed.
	f.blobs.demandFn = f.blobs.Checkpoint
	f.fillAndDelete(t, 60, 700, func(i int) bool { return i%2 == 0 })

	c := New(f.log, f.reg, Config{UtilizationThreshold: 0.7, MaxStripesPerPass: 100})
	cleaned, err := c.CleanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if f.blobs.demands == 0 {
		t.Fatal("no checkpoint demand issued")
	}
	if cleaned == 0 {
		t.Fatal("nothing cleaned after demand satisfied")
	}
}

func TestCleanerForceIgnoresFloor(t *testing.T) {
	f := newFixture(t, 3)
	defer f.log.Close()
	f.fillAndDelete(t, 60, 700, func(i int) bool { return true })
	// No checkpoint at all; Force reclaims anyway.
	c := New(f.log, f.reg, Config{UtilizationThreshold: 0.9, MaxStripesPerPass: 100, Force: true})
	cleaned, err := c.CleanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if cleaned == 0 {
		t.Fatal("force cleaned nothing")
	}
}

func TestCleanerCrashSafety(t *testing.T) {
	f := newFixture(t, 3)
	f.fillAndDelete(t, 80, 600, func(i int) bool { return i%4 != 0 })
	if err := f.blobs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c := New(f.log, f.reg, Config{UtilizationThreshold: 0.6, MaxStripesPerPass: 100})
	if _, err := c.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	// Crash WITHOUT a post-clean checkpoint: the moved blocks' creation
	// records must be replayed so the recovered metadata points at the
	// new addresses (the old stripes are gone).
	f.reopen(t)
	defer f.log.Close()
	for i := 0; i < 80; i += 4 {
		got, err := f.blobs.Get(blobName(i))
		if err != nil {
			t.Fatalf("get %d after crash: %v", i, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 600)) {
			t.Fatalf("blob %d corrupted after crash", i)
		}
	}
}

func TestCleanerMaxStripesPerPass(t *testing.T) {
	f := newFixture(t, 3)
	defer f.log.Close()
	f.fillAndDelete(t, 120, 700, func(i int) bool { return true })
	if err := f.blobs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c := New(f.log, f.reg, Config{UtilizationThreshold: 0.9, MaxStripesPerPass: 2})
	cleaned, err := c.CleanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if cleaned != 2 {
		t.Fatalf("cleaned %d stripes, want 2", cleaned)
	}
}

func TestCleanerBackgroundLoop(t *testing.T) {
	f := newFixture(t, 3)
	defer f.log.Close()
	f.fillAndDelete(t, 60, 700, func(i int) bool { return true })
	if err := f.blobs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c := New(f.log, f.reg, Config{UtilizationThreshold: 0.9, MaxStripesPerPass: 100})
	c.Start(5 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().StripesCleaned == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background cleaner never cleaned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
}

func TestCleanerStopWithoutStart(t *testing.T) {
	f := newFixture(t, 2)
	defer f.log.Close()
	c := New(f.log, f.reg, Config{})
	c.Stop() // must not hang
}
