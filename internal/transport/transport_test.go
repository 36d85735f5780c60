package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"swarm/internal/disk"
	"swarm/internal/model"
	"swarm/internal/server"
	"swarm/internal/wire"
)

const testFragSize = 4096

func newStore(t *testing.T) *server.Store {
	t.Helper()
	d := disk.NewMemDisk(1 << 20)
	st, err := server.Format(d, server.Config{FragmentSize: testFragSize})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// exerciseConn runs the full ServerConn contract against sc.
func exerciseConn(t *testing.T, sc ServerConn) {
	t.Helper()
	if err := sc.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	fid := wire.MakeFID(1, 0)
	data := bytes.Repeat([]byte{7}, 1000)
	if err := sc.Store(fid, data, true, nil); err != nil {
		t.Fatalf("store: %v", err)
	}
	got, err := sc.Read(fid, 10, 100)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data[10:110]) {
		t.Fatal("read data mismatch")
	}

	// Error mapping: absent fragment → StatusNotFound.
	if _, err := sc.Read(wire.MakeFID(1, 99), 0, 1); !wire.IsStatus(err, wire.StatusNotFound) {
		t.Fatalf("read absent: %v", err)
	}
	// Duplicate store → StatusExists.
	if err := sc.Store(fid, data, false, nil); !wire.IsStatus(err, wire.StatusExists) {
		t.Fatalf("duplicate store: %v", err)
	}

	if size, ok, err := sc.Has(fid); err != nil || !ok || size != 1000 {
		t.Fatalf("has = (%d,%v,%v)", size, ok, err)
	}
	if lm, ok, err := sc.LastMarked(1); err != nil || !ok || lm != fid {
		t.Fatalf("lastmarked = (%v,%v,%v)", lm, ok, err)
	}

	if err := sc.Prealloc(wire.MakeFID(1, 5)); err != nil {
		t.Fatalf("prealloc: %v", err)
	}
	fids, err := sc.List(1)
	if err != nil || len(fids) != 1 || fids[0] != fid {
		t.Fatalf("list = (%v,%v)", fids, err)
	}

	aid, err := sc.ACLCreate([]wire.ClientID{1, 2})
	if err != nil || aid == 0 {
		t.Fatalf("acl create = (%d,%v)", aid, err)
	}
	if err := sc.ACLModify(aid, []wire.ClientID{3}, nil); err != nil {
		t.Fatalf("acl modify: %v", err)
	}
	if err := sc.ACLModify(999, nil, nil); !wire.IsStatus(err, wire.StatusNotFound) {
		t.Fatalf("acl modify unknown: %v", err)
	}
	if err := sc.ACLDelete(aid); err != nil {
		t.Fatalf("acl delete: %v", err)
	}

	st, err := sc.Stat()
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.FragmentSize != testFragSize || st.Fragments != 2 {
		t.Fatalf("stat = %+v", st)
	}

	if err := sc.Delete(fid); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok, err := sc.Has(fid); err != nil || ok {
		t.Fatalf("has after delete = (%v,%v)", ok, err)
	}
}

func TestLocalConnContract(t *testing.T) {
	sc := NewLocal(1, newStore(t), 1)
	defer sc.Close()
	if sc.ID() != 1 {
		t.Fatalf("ID = %d", sc.ID())
	}
	exerciseConn(t, sc)
}

// The Stat RPC reports the units the store's extents hold, to the unit:
// a short fragment holds one unit, a full-size one a whole slot's worth.
func TestStatUnitsHeld(t *testing.T) {
	st := newStore(t)
	sc := NewLocal(1, st, 1)
	unit := server.UnitSize(testFragSize)
	for i, n := range []int{100, testFragSize, 3*unit + 1} {
		if err := sc.Store(wire.MakeFID(1, uint64(i)), bytes.Repeat([]byte{1}, n), false, nil); err != nil {
			t.Fatal(err)
		}
		rsp, err := sc.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if want := st.Stats().UnitsHeld; rsp.UnitsHeld != want {
			t.Fatalf("after a %d-byte store: Stat UnitsHeld = %d, Store.Stats = %d", n, rsp.UnitsHeld, want)
		}
	}
	if rsp, _ := sc.Stat(); rsp.UnitsHeld != 1+16+4 {
		t.Fatalf("UnitsHeld = %d, want 21 (1 + 16 + 4 units)", rsp.UnitsHeld)
	}
}

func TestTCPConnContract(t *testing.T) {
	srv, err := server.ListenAndServe(newStore(t), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc, err := DialTCPOpts(3, srv.Addr(), 1, TCPOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if sc.ID() != 3 {
		t.Fatalf("ID = %d", sc.ID())
	}
	exerciseConn(t, sc)
}

func TestTCPConcurrentRequests(t *testing.T) {
	srv, err := server.ListenAndServe(newStore(t), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc, err := DialTCPOpts(1, srv.Addr(), 1, TCPOptions{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				fid := wire.MakeFID(1, uint64(i*8+j))
				if err := sc.Store(fid, []byte{byte(i), byte(j)}, false, nil); err != nil {
					errs <- err
					return
				}
				data, err := sc.Read(fid, 0, 2)
				if err != nil {
					errs <- err
					return
				}
				if data[0] != byte(i) || data[1] != byte(j) {
					errs <- errors.New("data mismatch")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	if _, err := DialTCPOpts(1, "127.0.0.1:1", 1, TCPOptions{PoolSize: 1}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dial dead port: %v", err)
	}
}

func TestTCPServerRestartReconnects(t *testing.T) {
	st := newStore(t)
	srv, err := server.ListenAndServe(st, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	sc, err := DialTCPOpts(1, addr, 1, TCPOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Call fails while the server is down…
	if err := sc.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ping dead server: %v", err)
	}
	// …and succeeds again after a restart on the same address thanks to
	// the pool's lazy re-dial.
	srv2, err := server.ListenAndServe(st, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sc.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPCloseUnblocksCalls(t *testing.T) {
	srv, err := server.ListenAndServe(newStore(t), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc, err := DialTCPOpts(1, srv.Addr(), 1, TCPOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ping after close: %v", err)
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestBroadcastFindsHolders(t *testing.T) {
	stA, stB, stC := newStore(t), newStore(t), newStore(t)
	fid := wire.MakeFID(1, 7)
	if err := stA.Store(fid, []byte("x"), false, nil); err != nil {
		t.Fatal(err)
	}
	if err := stC.Store(fid, []byte("x"), false, nil); err != nil {
		t.Fatal(err)
	}
	conns := []ServerConn{NewLocal(1, stA, 1), NewLocal(2, stB, 1), NewLocal(3, stC, 1)}
	found, all := Broadcast(conns, fid)
	if !all {
		t.Fatal("broadcast over live servers reports a server that did not answer")
	}
	ids := map[wire.ServerID]bool{}
	for _, sc := range found {
		ids[sc.ID()] = true
	}
	if len(found) != 2 || !ids[1] || !ids[3] {
		t.Fatalf("broadcast found %v", ids)
	}
}

func TestBroadcastSkipsDeadServers(t *testing.T) {
	stA, stB := newStore(t), newStore(t)
	fid := wire.MakeFID(1, 7)
	if err := stB.Store(fid, []byte("x"), false, nil); err != nil {
		t.Fatal(err)
	}
	dead := NewFlaky(NewLocal(1, stA, 1))
	dead.SetDown(true)
	conns := []ServerConn{dead, NewLocal(2, stB, 1)}
	found, all := Broadcast(conns, fid)
	if all {
		t.Fatal("broadcast reports that a dead server answered")
	}
	if len(found) != 1 || found[0].ID() != 2 {
		t.Fatalf("broadcast = %v", found)
	}
}

func TestByID(t *testing.T) {
	conns := []ServerConn{NewLocal(1, newStore(t), 1), NewLocal(5, newStore(t), 1)}
	sc, err := ByID(conns, 5)
	if err != nil || sc.ID() != 5 {
		t.Fatalf("ByID = (%v,%v)", sc, err)
	}
	if _, err := ByID(conns, 9); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ByID missing = %v", err)
	}
}

func TestFlakyDownAndFailNext(t *testing.T) {
	sc := NewFlaky(NewLocal(1, newStore(t), 1))
	if err := sc.Ping(); err != nil {
		t.Fatal(err)
	}
	sc.SetDown(true)
	if err := sc.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ping down server: %v", err)
	}
	if !sc.Down() {
		t.Fatal("Down() = false")
	}
	sc.SetDown(false)
	boom := errors.New("boom")
	sc.FailNext(2, boom)
	if err := sc.Ping(); !errors.Is(err, boom) {
		t.Fatalf("first failNext: %v", err)
	}
	if err := sc.Ping(); !errors.Is(err, boom) {
		t.Fatalf("second failNext: %v", err)
	}
	if err := sc.Ping(); err != nil {
		t.Fatalf("after failNext exhausted: %v", err)
	}
	if sc.Calls() != 5 {
		t.Fatalf("Calls = %d, want 5", sc.Calls())
	}
}

func TestThrottledChargesTransferTime(t *testing.T) {
	inner := NewLocal(1, newStore(t), 1)
	nm := NetModel{
		Clock:     model.WallClock{},
		ClientNIC: model.NewQueue(model.WallClock{}, 30_000),
	}
	sc := NewThrottled(inner, nm)
	start := time.Now()
	// 3 KB at 30 KB/s ≈ 100 ms (and well under the fragment size).
	if err := sc.Store(wire.MakeFID(1, 0), make([]byte, 3000), false, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond {
		t.Fatalf("throttled store took %v, want ≳100ms", elapsed)
	}
}

func TestThrottledPassesThroughData(t *testing.T) {
	inner := NewLocal(4, newStore(t), 1)
	sc := NewThrottled(inner, NetModel{}) // all-nil resources: no delay
	if sc.ID() != 4 {
		t.Fatalf("ID = %d", sc.ID())
	}
	exerciseConn(t, sc)
}

func TestNewNetModelResources(t *testing.T) {
	nm := NewNetModel(model.WallClock{}, model.Paper1999())
	if nm.ClientNIC == nil || nm.ServerNIC == nil || nm.ServerCPU == nil {
		t.Fatal("missing resources")
	}
	if nm.Latency != model.NetMsgLatency {
		t.Fatalf("latency = %v", nm.Latency)
	}
	// Unlimited params produce nil throttles (no limit).
	nm0 := NewNetModel(nil, model.HardwareParams{})
	if nm0.ClientNIC != nil || nm0.ServerCPU != nil {
		t.Fatal("zero params created throttles")
	}
}

func TestFlakyFullContract(t *testing.T) {
	// The flaky wrapper must be a transparent ServerConn when healthy…
	fl := NewFlaky(NewLocal(9, newStore(t), 1))
	if fl.ID() != 9 {
		t.Fatalf("ID = %d", fl.ID())
	}
	exerciseConn(t, fl)
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	// …and fail every operation when down.
	fl2 := NewFlaky(NewLocal(1, newStore(t), 1))
	fl2.SetDown(true)
	if err := fl2.Store(wire.MakeFID(1, 0), nil, false, nil); !errors.Is(err, ErrUnavailable) {
		t.Fatal("store on down conn succeeded")
	}
	if _, err := fl2.Read(wire.MakeFID(1, 0), 0, 1); !errors.Is(err, ErrUnavailable) {
		t.Fatal("read on down conn succeeded")
	}
	if err := fl2.Delete(wire.MakeFID(1, 0)); !errors.Is(err, ErrUnavailable) {
		t.Fatal("delete on down conn succeeded")
	}
	if err := fl2.Prealloc(wire.MakeFID(1, 0)); !errors.Is(err, ErrUnavailable) {
		t.Fatal("prealloc on down conn succeeded")
	}
	if _, _, err := fl2.LastMarked(1); !errors.Is(err, ErrUnavailable) {
		t.Fatal("lastmarked on down conn succeeded")
	}
	if _, _, err := fl2.Has(wire.MakeFID(1, 0)); !errors.Is(err, ErrUnavailable) {
		t.Fatal("has on down conn succeeded")
	}
	if _, err := fl2.List(1); !errors.Is(err, ErrUnavailable) {
		t.Fatal("list on down conn succeeded")
	}
	if _, err := fl2.ACLCreate(nil); !errors.Is(err, ErrUnavailable) {
		t.Fatal("aclcreate on down conn succeeded")
	}
	if err := fl2.ACLModify(1, nil, nil); !errors.Is(err, ErrUnavailable) {
		t.Fatal("aclmodify on down conn succeeded")
	}
	if err := fl2.ACLDelete(1); !errors.Is(err, ErrUnavailable) {
		t.Fatal("acldelete on down conn succeeded")
	}
	if _, err := fl2.Stat(); !errors.Is(err, ErrUnavailable) {
		t.Fatal("stat on down conn succeeded")
	}
}

func TestThrottledClose(t *testing.T) {
	sc := NewThrottled(NewLocal(1, newStore(t), 1), NetModel{})
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestThrottledChargesFullModelOnAllOps(t *testing.T) {
	nm := NewNetModel(model.WallClock{}, model.Paper1999().Scaled(1000))
	sc := NewThrottled(NewLocal(1, newStore(t), 1), nm)
	exerciseConn(t, sc)
}

// TestRPCTimeoutClassifiedUnavailable pins the error classification of
// an RPC timeout: a server that accepts the connection but never
// responds must surface as ErrUnavailable (transient), so the resilient
// layer retries instead of treating the stall as permanent.
func TestRPCTimeoutClassifiedUnavailable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Drain requests without ever answering.
			go func() { _, _ = io.Copy(io.Discard, c) }()
		}
	}()

	sc, err := DialTCPOpts(1, ln.Addr().String(), 1, TCPOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sc.SetIOTimeout(50 * time.Millisecond)

	if err := sc.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Ping against a mute server: err = %v, want ErrUnavailable", err)
	}
}
