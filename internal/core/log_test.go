package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"swarm/internal/disk"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

const (
	testFragSize = 4096
	testClient   = wire.ClientID(1)
)

// cluster is an in-process test cluster.
type cluster struct {
	stores []*server.Store
	flaky  []*transport.Flaky
	conns  []transport.ServerConn
}

func newTestCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{}
	for i := 0; i < n; i++ {
		d := disk.NewMemDisk(4 << 20)
		st, err := server.Format(d, server.Config{FragmentSize: testFragSize})
		if err != nil {
			t.Fatal(err)
		}
		fl := transport.NewFlaky(transport.NewLocal(wire.ServerID(i+1), st, testClient))
		c.stores = append(c.stores, st)
		c.flaky = append(c.flaky, fl)
		c.conns = append(c.conns, fl)
	}
	return c
}

func (c *cluster) open(t *testing.T, cfg Config) (*Log, *Recovery) {
	t.Helper()
	cfg.Client = testClient
	cfg.Servers = c.conns
	cfg.FragmentSize = testFragSize
	l, rec, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func mustAppend(t *testing.T, l *Log, svc ServiceID, data []byte) BlockAddr {
	t.Helper()
	addr, err := l.AppendBlock(svc, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func mustRead(t *testing.T, l *Log, addr BlockAddr, n int) []byte {
	t.Helper()
	data, err := l.Read(addr, 0, uint32(n))
	if err != nil {
		t.Fatalf("read %v: %v", addr, err)
	}
	return data
}

func blockPattern(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i + j)
	}
	return b
}

func TestOpenValidation(t *testing.T) {
	c := newTestCluster(t, 2)
	if _, _, err := Open(Config{}); !errors.Is(err, ErrConfig) {
		t.Errorf("no servers: %v", err)
	}
	if _, _, err := Open(Config{Client: 1, Servers: c.conns, Width: 3, FragmentSize: testFragSize}); !errors.Is(err, ErrConfig) {
		t.Errorf("width > servers: %v", err)
	}
	if _, _, err := Open(Config{Client: 1, Servers: c.conns, FragmentSize: 64}); !errors.Is(err, ErrConfig) {
		t.Errorf("tiny fragment: %v", err)
	}
}

func TestAppendReadBeforeAndAfterSync(t *testing.T) {
	c := newTestCluster(t, 4)
	l, rec := c.open(t, Config{})
	if !rec.Fresh {
		t.Fatal("expected fresh log")
	}
	defer l.Close()

	var addrs []BlockAddr
	var blocks [][]byte
	for i := 0; i < 20; i++ {
		b := blockPattern(i, 300)
		addrs = append(addrs, mustAppend(t, l, 7, b))
		blocks = append(blocks, b)
	}
	// Read-your-writes before any flush.
	for i, addr := range addrs {
		if got := mustRead(t, l, addr, 300); !bytes.Equal(got, blocks[i]) {
			t.Fatalf("pre-sync read %d mismatch", i)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, addr := range addrs {
		if got := mustRead(t, l, addr, 300); !bytes.Equal(got, blocks[i]) {
			t.Fatalf("post-sync read %d mismatch", i)
		}
	}
	// Partial block read.
	if got, err := l.Read(addrs[3], 10, 50); err != nil || !bytes.Equal(got, blocks[3][10:60]) {
		t.Fatalf("partial read: %v", err)
	}
}

func TestStripeGeometry(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{})
	defer l.Close()
	if l.Width() != 4 || !l.ParityEnabled() {
		t.Fatalf("width=%d parity=%v", l.Width(), l.ParityEnabled())
	}
	// Parity index rotates by stripe.
	if l.parityIndex(0) != 0 || l.parityIndex(1) != 1 || l.parityIndex(5) != 1 {
		t.Fatal("parity rotation wrong")
	}
	// Data sequence numbers skip parity slots.
	if got := l.nextDataSeq(0); got != 1 {
		t.Fatalf("nextDataSeq(0) = %d (stripe 0 parity at index 0)", got)
	}
	if got := l.nextDataSeq(5); got != 6 {
		t.Fatalf("nextDataSeq(5) = %d (stripe 1 parity at index 1)", got)
	}
	// Members of one stripe land on distinct servers.
	seen := map[wire.ServerID]bool{}
	for i := 0; i < l.width; i++ {
		id := l.connAt(3, i).ID()
		if seen[id] {
			t.Fatalf("server %d repeated within stripe", id)
		}
		seen[id] = true
	}
}

func TestFragmentsLandOnRotatedServers(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()

	// Fill several stripes.
	for i := 0; i < 64; i++ {
		mustAppend(t, l, 7, blockPattern(i, 512))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Every sealed fragment must live exactly where placement says.
	for fid, sid := range locations(l) {
		stripe := l.stripeOf(fid.Seq())
		idx := int(fid.Seq() % uint64(l.width))
		if want := l.connAt(stripe, idx).ID(); want != sid {
			t.Fatalf("fragment %v on server %d, want %d", fid, sid, want)
		}
		// And actually be there.
		if _, ok, err := c.conns[sid-1].Has(fid); err != nil || !ok {
			t.Fatalf("fragment %v missing from server %d", fid, sid)
		}
	}
}

func TestParityVerifiesAfterSync(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{})
	defer l.Close()
	for i := 0; i < 100; i++ {
		mustAppend(t, l, 7, blockPattern(i, 700))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	stripes := l.usage.Stripes()
	if len(stripes) < 2 {
		t.Fatalf("only %d stripes written", len(stripes))
	}
	for _, s := range stripes {
		if err := l.VerifyStripe(s); err != nil {
			t.Fatalf("stripe %d: %v", s, err)
		}
	}
}

func TestReadSurvivesSingleServerFailure(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{})
	defer l.Close()

	var addrs []BlockAddr
	var blocks [][]byte
	for i := 0; i < 60; i++ {
		b := blockPattern(i, 600)
		addrs = append(addrs, mustAppend(t, l, 7, b))
		blocks = append(blocks, b)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Kill each server in turn; every block must stay readable.
	for kill := 0; kill < 4; kill++ {
		c.flaky[kill].SetDown(true)
		for i, addr := range addrs {
			got, err := l.Read(addr, 0, 600)
			if err != nil {
				t.Fatalf("server %d down, read %d: %v", kill, i, err)
			}
			if !bytes.Equal(got, blocks[i]) {
				t.Fatalf("server %d down, read %d mismatch", kill, i)
			}
		}
		c.flaky[kill].SetDown(false)
	}
	if l.Stats().Reconstructions == 0 {
		t.Fatal("no reconstructions recorded")
	}
}

func TestTwoFailuresInStripeAreFatal(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()
	addr := mustAppend(t, l, 7, blockPattern(0, 500))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	c.flaky[0].SetDown(true)
	c.flaky[1].SetDown(true)
	c.flaky[2].SetDown(true)
	if _, err := l.Read(addr, 0, 500); err == nil {
		t.Fatal("read succeeded with all servers down")
	}
	c.flaky[2].SetDown(false)
	// Two of three still down: the stripe is unreconstructable unless
	// the surviving server holds the needed fragment.
	if _, err := l.Read(addr, 0, 500); err != nil && !errors.Is(err, ErrLost) && !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

// TestReadNeverWrittenIsNotFound: a read of a FID no server holds, in a
// stripe no server holds a member of, is not found, which errors.Is
// tells apart from a lost fragment. With a server down the fragment may
// be on it, so the same read is lost.
func TestReadNeverWrittenIsNotFound(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()
	addr := BlockAddr{FID: wire.MakeFID(testClient, 1)}
	if _, err := l.Read(addr, 0, 10); !errors.Is(err, ErrNotFound) || errors.Is(err, ErrLost) {
		t.Fatalf("read of a never-written FID: %v, want ErrNotFound", err)
	}
	c.flaky[2].SetDown(true)
	if _, err := l.Read(addr, 0, 10); !errors.Is(err, ErrLost) || errors.Is(err, ErrNotFound) {
		t.Fatalf("read of an unknown FID with a server down: %v, want ErrLost", err)
	}
}

// TestReconstructParityFragment rebuilds a stripe's parity member from
// its data members and compares it with the stored one. The RS(4,2)
// cases do it with the other parity server down too, from a freshly
// opened log that holds no geometry entry: no parity header answers, so
// the stripe's member lengths must come from its last data member's
// header.
func TestReconstructParityFragment(t *testing.T) {
	for _, tc := range []struct {
		name      string
		servers   int
		parity    int
		blocks    int  // fragment-sized blocks (0: 30 of 800 bytes)
		otherDown bool // the other parity server down too, in a fresh log
	}{
		{"xor", 3, 1, 0, false},
		{"rs42/full", 6, 2, 4, true},
		{"rs42/short", 6, 2, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, tc.servers)
			l, _ := c.open(t, Config{ParityShards: tc.parity})
			for i := 0; i < 30 && tc.blocks == 0; i++ {
				mustAppend(t, l, 7, blockPattern(i, 800))
			}
			for i := 0; i < tc.blocks; i++ {
				mustAppend(t, l, 7, blockPattern(i, l.MaxBlockSize()))
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			pIdx := l.parityIndex(0)
			pfid := wire.MakeFID(testClient, uint64(pIdx))
			if tc.otherDown {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				l, _ = c.open(t, Config{ParityShards: tc.parity})
				c.flaky[l.connAt(0, l.paritySlot(0, 1)).ID()-1].SetDown(true)
				forgetGeometries(l)
			}
			defer l.Close()
			// Find stripe 0's parity fragment and its server; kill it.
			sid := l.connAt(0, pIdx).ID()
			c.flaky[sid-1].SetDown(true)
			h, payload, err := l.FetchFragment(pfid)
			if err != nil {
				t.Fatalf("reconstruct parity: %v", err)
			}
			if h.Kind != FragParity || h.FID != pfid {
				t.Fatalf("header = %+v", h)
			}
			if g, ok := geometryOf(l, 0); tc.otherDown && (!ok || g.Kind != FragData || int(g.Index) != g.LastData()) {
				t.Fatalf("stripe geometry %+v (known %v) is not the last data member's header", g, ok)
			}
			for _, f := range c.flaky {
				f.SetDown(false)
			}
			// Compare against the real parity fragment.
			realH, realPayload, err := l.fetchDirect(pfid)
			if err != nil {
				t.Fatal(err)
			}
			if realH.DataLen != h.DataLen || !bytes.Equal(payload, realPayload) {
				t.Fatal("reconstructed parity differs from stored parity")
			}
			if !bytes.Equal(EncodeHeader(&h), EncodeHeader(&realH)) {
				t.Fatalf("reconstructed parity header %+v differs from stored %+v", h, realH)
			}
		})
	}
}

func TestBroadcastFallbackFindsMislocatedFragment(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()
	addr := mustAppend(t, l, 7, blockPattern(1, 400))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Forget the fragment's location: FetchFragment must find it by
	// broadcast (self-hosting discovery).
	forgetLocation(l, addr.FID)
	if _, _, err := l.FetchFragment(addr.FID); err != nil {
		t.Fatalf("broadcast fetch: %v", err)
	}
	if l.Stats().BroadcastFallback == 0 {
		t.Fatal("broadcast fallback not recorded")
	}
}

func TestParityDisabledSingleServer(t *testing.T) {
	c := newTestCluster(t, 1)
	l, _ := c.open(t, Config{Width: 1})
	defer l.Close()
	if l.ParityEnabled() {
		t.Fatal("parity enabled with width 1")
	}
	var addrs []BlockAddr
	for i := 0; i < 20; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 900)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, addr := range addrs {
		if got := mustRead(t, l, addr, 900); !bytes.Equal(got, blockPattern(i, 900)) {
			t.Fatalf("read %d mismatch", i)
		}
	}
	if l.Stats().ParityFragments != 0 {
		t.Fatal("parity fragments written with parity disabled")
	}
}

func TestBlockTooLarge(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	defer l.Close()
	big := make([]byte, l.MaxBlockSize()+1)
	if _, err := l.AppendBlock(7, big, nil); !errors.Is(err, ErrBlockTooLarge) {
		t.Fatalf("oversized block: %v", err)
	}
	// Exactly max块 size works... but the creation record must also fit,
	// so use max minus some headroom.
	ok := make([]byte, l.MaxBlockSize())
	if _, err := l.AppendBlock(7, ok, nil); err != nil {
		t.Fatalf("max block: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBlock(7, []byte("x"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
	if _, err := l.Read(BlockAddr{FID: wire.MakeFID(testClient, 0)}, 0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := l.WriteCheckpoint(7, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: %v", err)
	}
}

func TestDeleteBlockAccounting(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	defer l.Close()
	addr := mustAppend(t, l, 7, blockPattern(0, 500))
	stripe := l.stripeOf(addr.FID.Seq())
	before, _ := l.usage.Get(stripe)
	if err := l.DeleteBlock(addr, 500, 7); err != nil {
		t.Fatal(err)
	}
	after, _ := l.usage.Get(stripe)
	if after.Live >= before.Live {
		t.Fatalf("live did not drop: %d -> %d", before.Live, after.Live)
	}
}

func TestStoreErrorSurfacesOnSync(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	defer l.Close()
	c.flaky[0].SetDown(true)
	c.flaky[1].SetDown(true)
	for i := 0; i < 30; i++ {
		if _, err := l.AppendBlock(7, blockPattern(i, 900), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync succeeded with all servers down")
	}
	c.flaky[0].SetDown(false)
	c.flaky[1].SetDown(false)
	l.ClearErr()
	if err := l.Err(); err != nil {
		t.Fatalf("error not cleared: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{})
	defer l.Close()

	const (
		goroutines = 8
		perG       = 40
	)
	type res struct {
		addr BlockAddr
		data []byte
	}
	results := make([][]res, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				data := blockPattern(g*1000+i, 256)
				addr, err := l.AppendBlock(ServiceID(g+1), data, nil)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				results[g] = append(results[g], res{addr, data})
			}
		}(g)
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for g := range results {
		for i, r := range results[g] {
			got, err := l.Read(r.addr, 0, uint32(len(r.data)))
			if err != nil {
				t.Fatalf("read g%d#%d: %v", g, i, err)
			}
			if !bytes.Equal(got, r.data) {
				t.Fatalf("data mismatch g%d#%d", g, i)
			}
		}
	}
}

// countingConn counts concurrent Store calls to verify pipeline depth.
type countingConn struct {
	transport.ServerConn
	mu       sync.Mutex
	inflight int
	maxSeen  int
	block    chan struct{}
}

func (c *countingConn) Store(fid wire.FID, data []byte, mark bool, ranges []wire.ACLRange) error {
	c.mu.Lock()
	c.inflight++
	if c.inflight > c.maxSeen {
		c.maxSeen = c.inflight
	}
	c.mu.Unlock()
	if c.block != nil {
		<-c.block
	}
	err := c.ServerConn.Store(fid, data, mark, ranges)
	c.mu.Lock()
	c.inflight--
	c.mu.Unlock()
	return err
}

func TestFlowControlRespectsPipelineDepth(t *testing.T) {
	c := newTestCluster(t, 1)
	cc := &countingConn{ServerConn: c.conns[0], block: make(chan struct{})}
	l, _, err := Open(Config{
		Client:        testClient,
		Servers:       []transport.ServerConn{cc},
		FragmentSize:  testFragSize,
		Width:         1,
		PipelineDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Enough data for many fragments; ship blocks at depth 2.
		for i := 0; i < 40; i++ {
			if _, err := l.AppendBlock(7, blockPattern(i, 1000), nil); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	// Let the pipeline fill, then drain.
	for i := 0; i < 100; i++ {
		cc.mu.Lock()
		full := cc.inflight >= 2
		cc.mu.Unlock()
		if full {
			break
		}
	}
	close(cc.block)
	<-done
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.maxSeen > 2 {
		t.Fatalf("pipeline depth exceeded: %d concurrent stores", cc.maxSeen)
	}
}

func TestReclaimStripe(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()
	for i := 0; i < 60; i++ {
		mustAppend(t, l, 7, blockPattern(i, 600))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	stripes := l.usage.Stripes()
	if len(stripes) < 2 {
		t.Fatal("need at least 2 stripes")
	}
	victim := stripes[0]
	if err := l.ReclaimStripe(victim); err != nil {
		t.Fatal(err)
	}
	// All member fragments gone from every server.
	base := victim * uint64(l.width)
	for i := 0; i < l.width; i++ {
		fid := wire.MakeFID(testClient, base+uint64(i))
		if found, _ := transport.Broadcast(l.Servers(), fid); len(found) != 0 {
			t.Fatalf("fragment %v survives on %d servers", fid, len(found))
		}
	}
	if _, ok := l.usage.Get(victim); ok {
		t.Fatal("usage entry survives reclaim")
	}
	// Reclaiming the active stripe is refused.
	cur := l.stripeOf(l.nextDataSeq(l.seq))
	if err := l.ReclaimStripe(cur); err == nil {
		t.Fatal("reclaimed active stripe")
	}
}

func TestReclaimStripeDefersDeletesOnDeadServer(t *testing.T) {
	// Reclaiming a stripe while one member's server is down must not
	// wedge: the data has already moved, so the stripe is dropped and the
	// orphan delete is deferred until the server answers again.
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()
	for i := 0; i < 60; i++ {
		mustAppend(t, l, 7, blockPattern(i, 600))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	stripes := l.usage.Stripes()
	if len(stripes) < 2 {
		t.Fatal("need at least 2 stripes")
	}
	victim := stripes[0]
	// Find which server holds member 0 of the victim stripe and kill it.
	deadIdx := int(victim % uint64(len(c.flaky)))
	c.flaky[deadIdx].SetDown(true)
	if err := l.ReclaimStripe(victim); err != nil {
		t.Fatalf("reclaim with a dead server: %v", err)
	}
	if _, ok := l.usage.Get(victim); ok {
		t.Fatal("usage entry survives reclaim")
	}
	if l.Stats().DeferredDeletes == 0 {
		t.Fatal("no deferred deletes recorded")
	}
	if left := l.FlushDeletes(); left == 0 {
		t.Fatal("flush drained deletes while the server is still down")
	}
	// Server returns: the orphan is deleted on retry.
	c.flaky[deadIdx].SetDown(false)
	if left := l.FlushDeletes(); left != 0 {
		t.Fatalf("%d deletes still pending after server returned", left)
	}
	base := victim * uint64(l.width)
	for i := 0; i < l.width; i++ {
		fid := wire.MakeFID(testClient, base+uint64(i))
		if found, _ := transport.Broadcast(l.Servers(), fid); len(found) != 0 {
			t.Fatalf("fragment %v survives on %d servers", fid, len(found))
		}
	}
}

func TestCheckpointFloor(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	defer l.Close()
	// No registered services: floor is zero.
	if got := l.CheckpointFloor(); got != (Pos{}) {
		t.Fatalf("empty floor = %+v", got)
	}
	l.RegisterService(7)
	// Registered but never checkpointed pins the floor.
	if got := l.CheckpointFloor(); got != (Pos{}) {
		t.Fatalf("unckpt floor = %+v", got)
	}
	mustAppend(t, l, 7, blockPattern(0, 100))
	a1, err := l.WriteCheckpoint(7, []byte("s7"))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.CheckpointFloor(); got != PosOf(a1) {
		t.Fatalf("floor = %+v, want %+v", got, PosOf(a1))
	}
	// A second service with an older position drags the floor down only
	// if its checkpoint is older; here it's newer, so floor stays at 7's.
	l.RegisterService(9)
	a2, err := l.WriteCheckpoint(9, []byte("s9"))
	if err != nil {
		t.Fatal(err)
	}
	if !PosOf(a1).Less(PosOf(a2)) {
		t.Fatal("checkpoint positions not monotonic")
	}
	if got := l.CheckpointFloor(); got != PosOf(a1) {
		t.Fatalf("floor moved to %+v", got)
	}
}

func TestStatsCounters(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	defer l.Close()
	mustAppend(t, l, 7, blockPattern(0, 100))
	if _, err := l.AppendRecord(7, []byte("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteCheckpoint(7, nil); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.BlocksAppended != 1 || st.RecordsAppended != 1 || st.Checkpoints != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BlockBytes != 100 || st.FragmentsSealed == 0 || st.BytesStored == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNextPosAdvances(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	defer l.Close()
	p0 := l.NextPos()
	mustAppend(t, l, 7, blockPattern(0, 100))
	p1 := l.NextPos()
	if !p0.Less(p1) {
		t.Fatalf("NextPos did not advance: %+v -> %+v", p0, p1)
	}
}

func TestManyStripesStress(t *testing.T) {
	c := newTestCluster(t, 5)
	l, _ := c.open(t, Config{})
	defer l.Close()
	type kv struct {
		addr BlockAddr
		sum  byte
	}
	var all []kv
	for i := 0; i < 400; i++ {
		data := blockPattern(i, 517)
		addr := mustAppend(t, l, 7, data)
		all = append(all, kv{addr, data[0]})
		if i%97 == 0 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, e := range all {
		got := mustRead(t, l, e.addr, 517)
		if got[0] != e.sum {
			t.Fatalf("block %d corrupted", i)
		}
	}
	// Verify every closed stripe's parity.
	for _, s := range l.usage.Stripes() {
		u, _ := l.usage.Get(s)
		if !u.Closed {
			continue
		}
		if err := l.VerifyStripe(s); err != nil {
			t.Fatalf("stripe %d: %v", s, err)
		}
	}
}

func TestShortStripePaddingOnSync(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{})
	defer l.Close()
	// One small block, then Sync: the stripe must be closed so the block
	// is parity-protected immediately. It closes short: its two unfilled
	// data slots are empty members, never stored.
	addr := mustAppend(t, l, 7, blockPattern(0, 100))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	stripe := l.stripeOf(addr.FID.Seq())
	u, ok := l.usage.Get(stripe)
	if !ok || !u.Closed {
		t.Fatalf("stripe not closed after sync: %+v", u)
	}
	if err := l.VerifyStripe(stripe); err != nil {
		t.Fatal(err)
	}
	if held := slotsHeld(c); held != 1+l.ParityShards() {
		t.Fatalf("stripe holds %d slots, want one data member plus %d parity", held, l.ParityShards())
	}
	if st := l.Stats(); st.FragmentsSealed != 1 || st.ParityFragments != 1 {
		t.Fatalf("sealed %d data and %d parity fragments, want 1 and 1", st.FragmentsSealed, st.ParityFragments)
	}
	// A fresh log fetches the stripe without one RPC to the servers of
	// its empty members, even when it has to learn which they are from
	// the stripe's stored headers.
	l2, _ := c.open(t, Config{})
	forgetEmpty(l2, stripe)
	var emptyServers []*transport.Flaky
	for i := 0; i < l.width; i++ {
		fid := wire.MakeFID(testClient, stripe*uint64(l.width)+uint64(i))
		if serverOf(l, fid) == 0 {
			emptyServers = append(emptyServers, c.flaky[l.connAt(stripe, i).ID()-1])
		}
	}
	if len(emptyServers) != 2 {
		t.Fatalf("%d empty members, want 2", len(emptyServers))
	}
	calls := func() (n int64) {
		for _, f := range emptyServers {
			n += f.Calls()
		}
		return n
	}
	before := calls()
	for i, m := range l2.FetchStripe(stripe) {
		if m.Err != nil {
			t.Fatalf("member %d: %v", i, m.Err)
		}
	}
	if err := l2.VerifyStripe(stripe); err != nil {
		t.Fatal(err)
	}
	if n := calls() - before; n != 0 {
		t.Fatalf("fetching the stripe made %d calls to the servers of its empty members", n)
	}
	l2.Close()
	// Kill the server holding the block; it must still be readable, and
	// the reconstruction decodes the empty members without fetching them.
	sid := serverOf(l, addr.FID)
	c.flaky[sid-1].SetDown(true)
	before = calls()
	if got := mustRead(t, l, addr, 100); !bytes.Equal(got, blockPattern(0, 100)) {
		t.Fatal("reconstructed read mismatch")
	}
	if n := calls() - before; n != 0 {
		t.Fatalf("reconstruction made %d calls to the servers of the empty members", n)
	}
}

func TestHintRoundTripThroughCreateRecord(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	defer l.Close()
	hint := []byte("inode=9,blk=3")
	addr, err := l.AppendBlock(7, blockPattern(0, 64), hint)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Scan the fragment and find the create record for this block.
	_, payload, err := l.FetchFragment(addr.FID)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	if err := IterEntries(payload, func(e Entry) bool {
		if e.Kind == EntryCreate {
			cr, derr := DecodeCreateRecord(e.Payload)
			if derr == nil && cr.Addr == addr {
				found = bytes.Equal(cr.Hint, hint)
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("create record with hint not found")
	}
}

func TestFragCacheEviction(t *testing.T) {
	fc := newFragCache(2)
	for i := 0; i < 5; i++ {
		fc.put(wire.MakeFID(1, uint64(i)), cachedFrag{payload: []byte{byte(i)}})
	}
	count := 0
	for i := 0; i < 5; i++ {
		if _, ok := fc.get(wire.MakeFID(1, uint64(i))); ok {
			count++
		}
	}
	if count > 2 {
		t.Fatalf("cache holds %d entries, cap 2", count)
	}
	fc.drop(wire.MakeFID(1, 4))
	if _, ok := fc.get(wire.MakeFID(1, 4)); ok {
		t.Fatal("dropped entry still cached")
	}
}

// TestFragCacheDropLeavesFIFO checks that a dropped fragment leaves the
// FIFO as well as the map: drops must not grow the FIFO, and a fragment
// put again after a drop is evicted in its new order.
func TestFragCacheDropLeavesFIFO(t *testing.T) {
	fid := func(seq uint64) wire.FID { return wire.MakeFID(testClient, seq) }
	frag := cachedFrag{payload: []byte{1}}
	t.Run("drops keep the FIFO bounded", func(t *testing.T) {
		c := newFragCache(4)
		for i := uint64(0); i < 1000; i++ {
			c.put(fid(i), frag)
			c.drop(fid(i))
		}
		if len(c.m) != 0 || len(c.fifo) != 0 {
			t.Fatalf("after 1000 put+drop cycles: %d cached, %d FIFO entries, want 0 and 0", len(c.m), len(c.fifo))
		}
	})
	t.Run("a fragment put again is evicted in its new order", func(t *testing.T) {
		c := newFragCache(2)
		a, b, d := fid(1), fid(2), fid(3)
		c.put(a, frag)
		c.drop(a)
		c.put(b, frag)
		c.put(a, frag)
		c.put(d, frag)
		if _, ok := c.get(b); ok {
			t.Error("b, the oldest entry, survived the eviction")
		}
		if _, ok := c.get(a); !ok {
			t.Error("a, put again after b, was evicted before it")
		}
		if _, ok := c.get(d); !ok {
			t.Error("d, just put, is missing")
		}
	})
}

func TestWidthNarrowerThanServers(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{Width: 3})
	defer l.Close()
	for i := 0; i < 80; i++ {
		mustAppend(t, l, 7, blockPattern(i, 800))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Stripes rotate over all 6 servers even at width 3.
	used := map[wire.ServerID]bool{}
	for _, sid := range locations(l) {
		used[sid] = true
	}
	if len(used) != 6 {
		t.Fatalf("only %d of 6 servers used", len(used))
	}
	for _, s := range l.usage.Stripes() {
		u, _ := l.usage.Get(s)
		if u.Closed {
			if err := l.VerifyStripe(s); err != nil {
				t.Fatalf("stripe %d: %v", s, err)
			}
		}
	}
}

func TestReadZeroBytes(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	defer l.Close()
	addr := mustAppend(t, l, 7, blockPattern(0, 10))
	got, err := l.Read(addr, 0, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("zero read = (%v,%v)", got, err)
	}
}

func TestErrStringsAndFormat(t *testing.T) {
	addr := BlockAddr{FID: wire.MakeFID(2, 3), Off: 7}
	if addr.String() != "2/3+7" {
		t.Fatalf("addr string = %q", addr.String())
	}
	// Recovery.Service never returns nil, even for unknown services.
	rec := &Recovery{Services: map[ServiceID]*RecoveredService{}}
	if svc := rec.Service(5); svc == nil || svc.HasCheckpoint {
		t.Fatal("Service(unknown) misbehaved")
	}
	if fmt.Sprintf("%v", addr) != "2/3+7" {
		t.Fatal("format")
	}
	var zero BlockAddr
	if !zero.IsZero() || addr.IsZero() {
		t.Fatal("IsZero")
	}
}

func TestReadaheadServesFragmentFromCache(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _, err := Open(Config{
		Client:             testClient,
		Servers:            c.conns,
		FragmentSize:       testFragSize,
		ReadaheadFragments: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var addrs []BlockAddr
	for i := 0; i < 6; i++ {
		addr, err := l.AppendBlock(7, blockPattern(i, 500), nil)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// All six blocks live in one fragment. Reading them cold should hit
	// the servers only for the first (header + payload), then serve the
	// rest from the cached fragment.
	before := c.flaky[0].Calls() + c.flaky[1].Calls()
	for i, addr := range addrs {
		got, err := l.Read(addr, 0, 500)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockPattern(i, 500)) {
			t.Fatalf("block %d mismatch", i)
		}
	}
	after := c.flaky[0].Calls() + c.flaky[1].Calls()
	if calls := after - before; calls > 3 {
		t.Fatalf("readahead made %d server calls for 6 blocks in one fragment, want ≤ 3", calls)
	}
}

func TestReadaheadDisabledReadsPerBlock(t *testing.T) {
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	defer l.Close()
	var addrs []BlockAddr
	for i := 0; i < 6; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 500)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	before := c.flaky[0].Calls() + c.flaky[1].Calls()
	for _, addr := range addrs {
		if _, err := l.Read(addr, 0, 500); err != nil {
			t.Fatal(err)
		}
	}
	after := c.flaky[0].Calls() + c.flaky[1].Calls()
	if calls := after - before; calls < 6 {
		t.Fatalf("without readahead expected ≥ 6 server calls, got %d", calls)
	}
}

func TestPreallocStripesGuaranteesCompletion(t *testing.T) {
	// Client A (with preallocation) opens a stripe; client B then fills
	// every remaining slot. A's stripe must still complete, parity and
	// all, because its slots were reserved when the stripe opened.
	c := newTestCluster(t, 2)
	a, _, err := Open(Config{
		Client:          1,
		Servers:         c.conns,
		FragmentSize:    testFragSize,
		PreallocStripes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Open the stripe: enough data to seal the first fragment.
	var addrs []BlockAddr
	for i := 0; i < 8; i++ {
		addr, err := a.AppendBlock(7, blockPattern(i, 600), nil)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	// Wait for the first fragment (and its preallocations) to land.
	a.waitInflight()

	// Client B floods both servers directly until full.
	for s, st := range c.stores {
		for i := uint64(0); ; i++ {
			if err := st.Store(wire.MakeFID(2, uint64(s)<<20|i), []byte("fill"), false, nil); err != nil {
				break
			}
		}
	}
	// A's stripe still completes.
	if err := a.Sync(); err != nil {
		t.Fatalf("sync with full servers: %v", err)
	}
	for i, addr := range addrs {
		got, err := a.Read(addr, 0, 600)
		if err != nil || !bytes.Equal(got, blockPattern(i, 600)) {
			t.Fatalf("block %d after flood: %v", i, err)
		}
	}
	// The stripe is parity-complete.
	if err := a.VerifyStripe(a.stripeOf(addrs[0].FID.Seq())); err != nil {
		t.Fatal(err)
	}
}

func TestWithoutPreallocFloodCausesFailure(t *testing.T) {
	// The contrast case: without preallocation, the same flood makes the
	// stripe unable to complete.
	c := newTestCluster(t, 2)
	a, _ := c.open(t, Config{})
	defer a.Close()
	for i := 0; i < 8; i++ {
		if _, err := a.AppendBlock(7, blockPattern(i, 600), nil); err != nil {
			t.Fatal(err)
		}
	}
	a.waitInflight()
	for s, st := range c.stores {
		for i := uint64(0); ; i++ {
			if err := st.Store(wire.MakeFID(2, uint64(s)<<20|i), []byte("fill"), false, nil); err != nil {
				break
			}
		}
	}
	if err := a.Sync(); err == nil {
		t.Fatal("sync succeeded with full servers and no preallocation")
	}
}

func TestCorruptFragmentHealsFromParity(t *testing.T) {
	// Bit rot on a server: the payload checksum catches it on fetch and
	// the fragment is transparently rebuilt from the stripe's parity.
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()
	var addrs []BlockAddr
	for i := 0; i < 20; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 700)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt one data fragment on its server: re-store a bit-flipped
	// copy (delete + store of the same FID).
	victim := addrs[0].FID
	sid := serverOf(l, victim)
	conn := c.conns[sid-1]
	size, ok, err := conn.Has(victim)
	if err != nil || !ok {
		t.Fatalf("victim missing: %v", err)
	}
	raw, err := conn.Read(victim, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	raw[HeaderSize+int(addrs[0].Off)+EntryHdrSize+3] ^= 0xFF // flip a payload bit
	if err := conn.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := conn.Store(victim, raw, false, nil); err != nil {
		t.Fatal(err)
	}

	// A whole-fragment fetch detects the corruption and heals via the
	// stripe: the returned contents are the ORIGINAL bytes.
	h, payload, err := l.FetchFragment(victim)
	if err != nil {
		t.Fatalf("fetch corrupted fragment: %v", err)
	}
	if h.FID != victim {
		t.Fatalf("header = %+v", h)
	}
	got, err := sliceBlock(payload, addrs[0], 0, 700)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blockPattern(0, 700)) {
		t.Fatal("healed fragment does not match original data")
	}
	if l.Stats().Reconstructions == 0 {
		t.Fatal("corruption did not trigger reconstruction")
	}
}

// TestCorruptSurvivorSkippedByReconstruction loses one data member of
// an RS(4,2) stripe and flips a payload byte of a surviving one. The
// whole-fragment reconstruction checks every survivor against its
// PayloadCRC, so the corrupt member counts as missing and the hedge
// replaces it. The spare parity server answers slowly, so a decoder
// that skipped the check would decode the first four to land, the
// corrupt member among them.
func TestCorruptSurvivorSkippedByReconstruction(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{ParityShards: 2})
	defer l.Close()
	for i := 0; i < 4; i++ {
		mustAppend(t, l, 7, blockPattern(i, l.MaxBlockSize()))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Stripe 0 keeps its parity at slots 0 and 1 and its data at 2..5.
	lost, victim := wire.MakeFID(testClient, 2), wire.MakeFID(testClient, 3)
	_, want, err := l.fetchDirect(lost)
	if err != nil {
		t.Fatal(err)
	}
	// Re-store the victim with one payload byte flipped (delete + store
	// of the same FID).
	conn := c.conns[serverOf(l, victim)-1]
	size, ok, err := conn.Has(victim)
	if err != nil || !ok {
		t.Fatalf("victim missing: %v", err)
	}
	raw, err := conn.Read(victim, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	raw[HeaderSize+100] ^= 0xFF
	if err := conn.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := conn.Store(victim, raw, false, nil); err != nil {
		t.Fatal(err)
	}
	c.flaky[serverOf(l, wire.MakeFID(testClient, 1))-1].SetLatency(20 * time.Millisecond)
	downAt(c, l, lost)

	h, got, err := l.FetchFragment(lost)
	if err != nil {
		t.Fatalf("reconstruct beside a corrupt survivor: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reconstruction decoded the corrupt survivor")
	}
	if h.FID != lost || h.DataLen != uint32(len(want)) || h.PayloadCRC != crc32.ChecksumIEEE(want) {
		t.Fatalf("header = %+v", h)
	}
}

func TestOpenRejectsFragmentSizeMismatch(t *testing.T) {
	c := newTestCluster(t, 2) // servers formatted with testFragSize
	if _, _, err := Open(Config{
		Client:       testClient,
		Servers:      c.conns,
		FragmentSize: testFragSize * 2,
	}); !errors.Is(err, ErrConfig) {
		t.Fatalf("mismatched fragment size: %v", err)
	}
}

func TestFailedStoreKeepsLocalReads(t *testing.T) {
	// One server dies mid-write: with parity on, the write path degrades
	// instead of failing — Sync succeeds because every stripe is still
	// parity-covered with one member missing — and every block stays
	// readable, locally from the retained in-flight copies and remotely
	// via reconstruction.
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{})
	defer l.Close()

	c.flaky[2].SetDown(true)
	var addrs []BlockAddr
	for i := 0; i < 40; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 600)))
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync did not degrade around the dead server: %v", err)
	}
	stats := l.Stats()
	if stats.DegradedWrites == 0 || stats.DegradedStripes == 0 {
		t.Fatalf("no degraded writes recorded: %+v", stats)
	}
	if len(l.DegradedFIDs()) == 0 {
		t.Fatal("no degraded FIDs recorded")
	}
	for i, addr := range addrs {
		got, err := l.Read(addr, 0, 600)
		if err != nil {
			t.Fatalf("read %d after failed store: %v", i, err)
		}
		if !bytes.Equal(got, blockPattern(i, 600)) {
			t.Fatalf("read %d mismatch", i)
		}
	}
	// After the server returns, rebuilding restores full durability and
	// clears the degraded set.
	c.flaky[2].SetDown(false)
	rebuilt, err := l.RebuildServer(3)
	if err != nil {
		t.Fatalf("rebuild after outage: %v", err)
	}
	if rebuilt == 0 {
		t.Fatal("rebuild restored nothing")
	}
	if left := l.DegradedFIDs(); len(left) != 0 {
		t.Fatalf("degraded FIDs remain after rebuild: %v", left)
	}
	// Every stripe verifies clean against the servers afterwards.
	for _, s := range l.Usage().Stripes() {
		if u, _ := l.Usage().Get(s); !u.Closed {
			continue
		}
		if err := l.VerifyStripe(s); err != nil {
			t.Fatalf("stripe %d after rebuild: %v", s, err)
		}
	}
}
