package swarm

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarm/internal/transport"
	"swarm/internal/wire"
)

// membershipBlock derives a deterministic block body from its index.
func membershipBlock(i int) []byte {
	b := make([]byte, 1024)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// TestElasticJoinDrainUnderLoad is the acceptance test for elastic
// membership: a 6-server RS(4,2) cluster takes continuous mixed
// read/write load while a 7th server joins and an original drains to
// removal. Zero data loss, and stripes written before, during, and
// after the epoch changes all read back. Run under -race.
func TestElasticJoinDrainUnderLoad(t *testing.T) {
	cluster, err := NewLocalCluster(6, ServerOptions{DiskBytes: 64 << 20, FragmentSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, err := cluster.Connect(1, ClientOptions{
		FragmentSize: 16 << 10, Width: 6, ParityShards: 2, Codec: "rs",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l := c.Log()

	// Baseline data before any membership change (epoch 0).
	var (
		mu    sync.Mutex
		addrs []BlockAddr
	)
	appendOne := func(i int) error {
		a, err := l.AppendBlock(7, membershipBlock(i), nil)
		if err != nil {
			return err
		}
		mu.Lock()
		addrs = append(addrs, a)
		mu.Unlock()
		return nil
	}
	for i := 0; i < 48; i++ {
		if err := appendOne(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	// Continuous load: a writer appending new blocks and a reader
	// verifying random already-written ones, both running across the
	// join, the drain, and the removal.
	stop := make(chan struct{})
	errs := make(chan error, 2)
	next := 48
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if err := appendOne(next); err != nil {
				errs <- fmt.Errorf("append %d: %w", next, err)
				return
			}
			next++
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			mu.Lock()
			n := len(addrs)
			idx := (i * 13) % n
			a := addrs[idx]
			mu.Unlock()
			got, err := l.Read(a, 0, 1024)
			if err != nil {
				errs <- fmt.Errorf("read block %d during churn: %w", idx, err)
				return
			}
			if !bytes.Equal(got, membershipBlock(idx)) {
				errs <- fmt.Errorf("block %d corrupted during churn", idx)
				return
			}
		}
	}()

	// The membership sequence, with load running throughout.
	s7, err := NewServer(ServerOptions{DiskBytes: 64 << 20, FragmentSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s7.Close()
	joined, err := c.AddLocalServer(s7)
	if err != nil {
		t.Fatal(err)
	}
	if joined != 7 {
		t.Fatalf("new server assigned ID %d, want 7", joined)
	}
	victim := ServerID(1)
	if err := c.DrainServer(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitRebalance(victim); err != nil {
		t.Fatal(err)
	}
	st, ok := c.RebalanceStats(victim)
	if !ok || !st.Done {
		t.Fatalf("rebalance not done: %+v", st)
	}
	if st.Moved == 0 {
		t.Fatal("drain moved nothing")
	}
	if err := c.RemoveServer(victim); err != nil {
		t.Fatal(err)
	}

	// A little more load after the removal, then stop.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	// Placement reflects the new world: 6 members, server 1 gone.
	p := c.Placement()
	if len(p.Members) != 6 {
		t.Fatalf("placement has %d members after removal: %+v", len(p.Members), p)
	}
	for _, m := range p.Members {
		if m.ID == victim {
			t.Fatalf("removed server still in placement: %+v", p)
		}
		if m.State != ServerActive {
			t.Fatalf("member %d in state %v after drain completed", m.ID, m.State)
		}
	}
	if p.Epoch < 3 {
		t.Fatalf("epoch %d after join+drain+remove, want >= 3", p.Epoch)
	}

	// Every block ever written — before, during, and after the epoch
	// changes — reads back intact.
	mu.Lock()
	final := append([]BlockAddr(nil), addrs...)
	mu.Unlock()
	if len(final) < 49 {
		t.Fatalf("only %d blocks written; churn load never ran", len(final))
	}
	for i, a := range final {
		got, err := l.Read(a, 0, 1024)
		if err != nil {
			t.Fatalf("final read block %d: %v", i, err)
		}
		if !bytes.Equal(got, membershipBlock(i)) {
			t.Fatalf("block %d corrupted after membership churn", i)
		}
	}
	if ls := l.Stats(); ls.RebalancedFragments == 0 || ls.ServersActive != 6 {
		t.Fatalf("stats after churn: %+v", ls)
	}
}

// TestChaosKillDuringOwnDrain is the S6 chaos test: a server dies
// mid-way through its own drain, under mixed RS(4,2) load. The drain
// must still complete (reconstructing what the corpse held), with zero
// data loss and a successful removal. Run under -race.
func TestChaosKillDuringOwnDrain(t *testing.T) {
	cfg := transport.ResilientConfig{
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
		RetryMax:      4 * time.Millisecond,
		FailThreshold: 3,
		OpenTimeout:   25 * time.Millisecond,
		Seed:          11,
	}
	// 7 servers striped RS(4,2): one spare beyond the stripe width, so
	// draining (then losing) one member is survivable.
	c, flaky := chaosClusterOpts(t, 7, cfg, ClientOptions{Width: 6, ParityShards: 2, Codec: "rs"})
	defer c.Close()
	l := c.Log()

	const nBlocks = 240
	var addrs []BlockAddr
	for i := 0; i < nBlocks; i++ {
		a, err := l.AppendBlock(7, chaosBlock(uint64(i), 0, 1024), nil)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	victim := ServerID(2)
	if err := c.DrainServer(victim, RebalanceOptions{Workers: 1, Pace: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Kill the victim while its own drain is in flight.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			st, ok := c.RebalanceStats(victim)
			if ok && (st.Moved >= 1 || st.Done) {
				// At least one move completed (or the drain already
				// finished): the server dies mid-drain.
				flaky[victim-1].SetDown(true)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Mixed load while the drain fights the outage.
	loadErr := make(chan error, 1)
	go func() {
		for i := 0; i < 48; i++ {
			if _, err := l.AppendBlock(7, chaosBlock(uint64(1000+i), 0, 1024), nil); err != nil {
				loadErr <- err
				return
			}
			if _, err := l.Read(addrs[i%len(addrs)], 0, 64); err != nil {
				loadErr <- err
				return
			}
		}
		loadErr <- nil
	}()

	if err := c.WaitRebalance(victim); err != nil {
		t.Fatalf("drain did not complete after its server died: %v", err)
	}
	<-killed
	if err := <-loadErr; err != nil {
		t.Fatalf("load during drain+kill: %v", err)
	}
	st, _ := c.RebalanceStats(victim)
	if !st.Done {
		t.Fatalf("rebalance not done: %+v", st)
	}
	if err := c.RemoveServer(victim); err != nil {
		t.Fatalf("remove dead drained server: %v", err)
	}

	// Zero data loss: every block written before and during the chaos
	// reads back, with the victim still dead.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		got, err := l.Read(a, 0, 1024)
		if err != nil {
			t.Fatalf("block %d lost after kill-during-drain: %v", i, err)
		}
		if !bytes.Equal(got, chaosBlock(uint64(i), 0, 1024)) {
			t.Fatalf("block %d corrupted after kill-during-drain", i)
		}
	}
}

// TestGrantAccessDuringAddServer races GrantAccess against AddLocalServer
// on a Protect client. The ACL IDs live in the log alone, so a grant
// reads them under the log's lock while a join writes them; every server
// admitted before the last grant must then let client 2 read. Run under
// -race; the rounds give the detector many interleavings to catch an
// unguarded read of the ACL map.
func TestGrantAccessDuringAddServer(t *testing.T) {
	for round := 0; round < 64; round++ {
		grantDuringAddServer(t)
	}
}

func grantDuringAddServer(t *testing.T) {
	const fragSize = 16 << 10
	opts := ServerOptions{DiskBytes: 8 << 20, FragmentSize: fragSize}
	cluster, err := NewLocalCluster(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, err := cluster.Connect(1, ClientOptions{FragmentSize: fragSize, Protect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stores := cluster.Servers()
	for i := 0; i < 3; i++ {
		s, err := NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stores = append(stores, s)
	}

	// The granter's last grant begins after every join has returned.
	var admitted atomic.Int32
	granted := make(chan error, 1)
	go func() {
		for {
			n := admitted.Load()
			if err := c.GrantAccess(2); err != nil || n == 3 {
				granted <- err
				return
			}
		}
	}()
	for _, s := range stores[3:] {
		if _, err := c.AddLocalServer(s); err != nil {
			t.Fatal(err)
		}
		admitted.Add(1)
	}
	if err := <-granted; err != nil {
		t.Fatal(err)
	}

	// Width-3 stripes rotate over all six servers.
	for i := 0; i < 256; i++ {
		if _, err := c.Log().AppendBlock(7, membershipBlock(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	servers := c.log.Servers()
	if len(servers) != len(stores) {
		t.Fatalf("%d servers in the log, want %d", len(servers), len(stores))
	}
	for _, sc := range servers {
		fids, err := c.Log().ListServer(sc.ID())
		if err != nil || len(fids) == 0 {
			t.Fatalf("server %d holds %d fragments (%v); test is vacuous", sc.ID(), len(fids), err)
		}
		reader := transport.NewLocal(sc.ID(), stores[sc.ID()-1].store, 2)
		data, err := reader.Read(fids[0], 0, 16)
		if err != nil {
			t.Fatalf("client 2 denied on server %d: %v", sc.ID(), err)
		}
		wire.PutBuffer(data)
	}
}
