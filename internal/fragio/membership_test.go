package fragio

import (
	"sync"
	"testing"
	"time"

	"swarm/internal/transport"
	"swarm/internal/wire"
)

// Dynamic-membership behavior of the engine: servers can be added and
// removed while gathers, stores, and straggler drains are in flight.

func TestAddServerDuplicateRejected(t *testing.T) {
	a, b := newFakeConn(1), newFakeConn(2)
	e := newEngine(a, b)
	if err := e.AddServer(newFakeConn(1)); err == nil {
		t.Fatal("duplicate ID admitted")
	}
	if err := e.AddServer(newFakeConn(3)); err != nil {
		t.Fatal(err)
	}
	if e.Conn(3) == nil {
		t.Fatal("added server not resolvable")
	}
}

func TestRemoveServerLeavesBroadcastSet(t *testing.T) {
	a, b := newFakeConn(1), newFakeConn(2)
	a.put(fid(1), []byte("x"))
	b.put(fid(1), []byte("x"))
	e := newEngine(a, b)
	e.RemoveServer(2)
	if e.Conn(2) != nil {
		t.Fatal("removed server still resolvable")
	}
	// Discovery must still work through the survivor.
	if _, _, err := e.Locate(fid(1)); err != nil {
		t.Fatal(err)
	}
	// Removing an unknown ID is a no-op, not a panic.
	e.RemoveServer(99)
}

// TestGatherKStragglerVsRemoveServer is the S3 regression test: a
// GatherK returns at quorum while slow members are still fetching, and
// the straggler's server is concurrently removed from the engine. The
// in-flight fetch must complete (or fail) on its captured connection
// without racing the membership change, and later operations against
// the removed ID must degrade gracefully. Run under -race.
func TestGatherKStragglerVsRemoveServer(t *testing.T) {
	const rounds = 20
	for round := 0; round < rounds; round++ {
		var conns []transport.ServerConn
		var members []Member
		payload := []byte("straggler payload")
		for i := 0; i < 4; i++ {
			c := newFakeConn(wire.ServerID(i + 1))
			c.put(fid(uint64(i)), payload)
			if i >= 2 {
				// Members 3 and 4 are stragglers: their fetches are
				// still in flight when the quorum lands.
				c.setLatency(3 * time.Millisecond)
			}
			conns = append(conns, c)
			members = append(members, Member{FID: fid(uint64(i)), Server: c.ID()})
		}
		e := newEngine(conns...)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			res := e.GatherK(members, 2)
			ok := 0
			for _, r := range res {
				if r.Err == nil {
					ok++
				}
			}
			if ok < 2 {
				t.Errorf("round %d: quorum not reached: %+v", round, res)
			}
		}()
		go func() {
			defer wg.Done()
			// Remove a straggler while its fetch is (likely) in flight.
			e.RemoveServer(4)
		}()
		wg.Wait()

		// The removed ID is gone; operations against it are no-ops or
		// clean errors, never lookups into freed queues.
		if e.Conn(4) != nil {
			t.Fatalf("round %d: removed server still resolvable", round)
		}
		res := e.GatherK([]Member{{FID: fid(3), Server: 4}}, 1)
		if res[0].Err == nil {
			t.Fatalf("round %d: gather from removed server succeeded", round)
		}
		done := make(chan error, 1)
		e.StoreAsync(conns[3], fid(9), append([]byte(nil), payload...), false, nil,
			func(err error) { done <- err })
		<-done // must complete, not hang on a deleted semaphore
	}
}

// TestGatherVsMembershipChurn hammers gathers against concurrent
// add/remove cycles of a rotating victim server. Run under -race.
func TestGatherVsMembershipChurn(t *testing.T) {
	var conns []transport.ServerConn
	var members []Member
	for i := 0; i < 5; i++ {
		c := newFakeConn(wire.ServerID(i + 1))
		c.put(fid(uint64(i)), []byte("churn"))
		conns = append(conns, c)
		members = append(members, Member{FID: fid(uint64(i)), Server: c.ID()})
	}
	e := newEngine(conns...)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.RemoveServer(5)
			e.AddServer(conns[4])
		}
	}()
	var gg sync.WaitGroup
	for g := 0; g < 4; g++ {
		gg.Add(1)
		go func() {
			defer gg.Done()
			for i := 0; i < 50; i++ {
				res := e.GatherK(members, 3)
				ok := 0
				for _, r := range res {
					if r.Err == nil {
						ok++
					}
				}
				if ok < 3 {
					t.Errorf("quorum lost during churn: %+v", res)
					return
				}
			}
		}()
	}
	gg.Wait()
	close(stop)
	churn.Wait()
	// Leave the engine with server 5 present for a final full gather.
	e.RemoveServer(5)
	if err := e.AddServer(conns[4]); err != nil {
		t.Fatal(err)
	}
	for i, r := range e.GatherK(members, len(members)) {
		if r.Err != nil {
			t.Fatalf("member %d after churn: %v", i, r.Err)
		}
	}
}
