package core

import (
	"bytes"
	"errors"
	"testing"

	"swarm/internal/disk"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// addServer grows the cluster by one in-process server and admits it to
// the log, returning the new server's ID.
func (c *cluster) addServer(t *testing.T, l *Log) wire.ServerID {
	t.Helper()
	d := disk.NewMemDisk(4 << 20)
	st, err := server.Format(d, server.Config{FragmentSize: testFragSize})
	if err != nil {
		t.Fatal(err)
	}
	id := wire.ServerID(len(c.conns) + 1)
	fl := transport.NewFlaky(transport.NewLocal(id, st, testClient))
	c.stores = append(c.stores, st)
	c.flaky = append(c.flaky, fl)
	c.conns = append(c.conns, fl)
	if _, err := l.AddServer(fl, 0); err != nil {
		t.Fatal(err)
	}
	return id
}

// fragsOn lists the client's fragments on one cluster server.
func (c *cluster) fragsOn(t *testing.T, id wire.ServerID) []wire.FID {
	t.Helper()
	fids, err := c.conns[id-1].List(testClient)
	if err != nil {
		t.Fatal(err)
	}
	return fids
}

func TestAddServerBumpsEpochAndStampsHeaders(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()

	var before, after []BlockAddr
	for i := 0; i < 12; i++ {
		before = append(before, mustAppend(t, l, 7, blockPattern(i, 1024)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.PlacementEpoch(); got != 0 {
		t.Fatalf("epoch before join = %d", got)
	}
	newID := c.addServer(t, l)
	if got := l.PlacementEpoch(); got != 1 {
		t.Fatalf("epoch after join = %d", got)
	}
	for i := 0; i < 12; i++ {
		after = append(after, mustAppend(t, l, 7, blockPattern(100+i, 1024)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	// Old stripes carry epoch 0, new stripes epoch 1, and every block
	// written on either side of the barrier reads back intact.
	for i, addr := range before {
		if !bytes.Equal(mustRead(t, l, addr, 1024), blockPattern(i, 1024)) {
			t.Fatalf("pre-join block %d corrupted", i)
		}
		h, _, err := l.FetchFragment(addr.FID)
		if err != nil {
			t.Fatal(err)
		}
		if h.Epoch != 0 {
			t.Fatalf("pre-join fragment stamped epoch %d", h.Epoch)
		}
	}
	sawNew := false
	for i, addr := range after {
		if !bytes.Equal(mustRead(t, l, addr, 1024), blockPattern(100+i, 1024)) {
			t.Fatalf("post-join block %d corrupted", i)
		}
		h, _, err := l.FetchFragment(addr.FID)
		if err != nil {
			t.Fatal(err)
		}
		if h.Epoch != 1 {
			t.Fatalf("post-join fragment stamped epoch %d", h.Epoch)
		}
	}
	// The new server participates in post-join placement.
	if fids := c.fragsOn(t, newID); len(fids) > 0 {
		sawNew = true
	}
	if !sawNew {
		t.Fatal("new server received no fragments after joining")
	}
}

func TestAddServerRejectsDuplicateAndWrongGeometry(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()

	if _, err := l.AddServer(c.conns[0], 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("duplicate join: %v", err)
	}
	d := disk.NewMemDisk(4 << 20)
	st, err := server.Format(d, server.Config{FragmentSize: testFragSize * 2})
	if err != nil {
		t.Fatal(err)
	}
	odd := transport.NewLocal(9, st, testClient)
	if _, err := l.AddServer(odd, 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("mismatched fragment size: %v", err)
	}
	// Neither failed join may have disturbed the placement epoch.
	if got := l.PlacementEpoch(); got != 0 {
		t.Fatalf("epoch after failed joins = %d", got)
	}
}

func TestDrainStopsNewPlacement(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{Width: 3})
	defer l.Close()

	for i := 0; i < 9; i++ {
		mustAppend(t, l, 7, blockPattern(i, 1024))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	victim := wire.ServerID(2)
	had := len(c.fragsOn(t, victim))
	if had == 0 {
		t.Fatal("victim held nothing before drain; test is vacuous")
	}
	if _, err := l.DrainServer(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mustAppend(t, l, 7, blockPattern(100+i, 1024))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.fragsOn(t, victim)); got != had {
		t.Fatalf("draining server gained fragments: %d -> %d", had, got)
	}
	// Draining again is a no-op, not an error.
	if _, err := l.DrainServer(victim); err != nil {
		t.Fatal(err)
	}
}

func TestDrainBelowWidthRejected(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{Width: 3})
	defer l.Close()
	if _, err := l.DrainServer(1); !errors.Is(err, ErrConfig) {
		t.Fatalf("drain below width: %v", err)
	}
}

// TestManualDrainToRemoval walks the full lifecycle with the same
// primitives the background rebalancer uses: drain, migrate each
// fragment (fetch → place → store → verify → delete), remove, and read
// everything back through fall-forward resolution.
func TestManualDrainToRemoval(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{Width: 3})
	defer l.Close()

	var addrs []BlockAddr
	for i := 0; i < 18; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 1024)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	victim := wire.ServerID(3)

	// Removal without a drain must be refused.
	if _, err := l.RemoveServer(victim); !errors.Is(err, ErrConfig) {
		t.Fatalf("remove active server: %v", err)
	}
	if _, err := l.DrainServer(victim); err != nil {
		t.Fatal(err)
	}
	// Removal while fragments remain must be refused.
	if _, err := l.RemoveServer(victim); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty server: %v", err)
	}

	fids, err := l.ListServer(victim)
	if err != nil {
		t.Fatal(err)
	}
	src := l.ServerConn(victim)
	for _, fid := range fids {
		h, payload, err := l.FetchFrameFrom(victim, fid)
		if err != nil {
			t.Fatal(err)
		}
		target, err := l.MigrationTarget(&h, victim)
		if err != nil {
			t.Fatal(err)
		}
		if target.ID() == victim {
			t.Fatal("migration target is the source")
		}
		if err := l.StoreFrame(target, &h, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.VerifyFrameOn(target, &h); err != nil {
			t.Fatal(err)
		}
		l.NoteMigrated(fid, target.ID(), len(payload))
		if err := l.DeleteFrom(src, fid); err != nil {
			t.Fatal(err)
		}
	}
	if left := c.fragsOn(t, victim); len(left) != 0 {
		t.Fatalf("%d fragments left after manual drain", len(left))
	}
	if _, err := l.RemoveServer(victim); err != nil {
		t.Fatal(err)
	}
	if l.ServerConn(victim) != nil {
		t.Fatal("removed server still resolvable")
	}
	// Every block written before the removal still reads, including
	// members that lived on the victim (now found at their new homes).
	for i, addr := range addrs {
		if !bytes.Equal(mustRead(t, l, addr, 1024), blockPattern(i, 1024)) {
			t.Fatalf("block %d lost after removal", i)
		}
	}
	if st := l.Stats(); st.RebalancedFragments != int64(len(fids)) {
		t.Fatalf("RebalancedFragments = %d, moved %d", st.RebalancedFragments, len(fids))
	}
}

// TestNoteMigratedReleasesHeldFrame drains a server that was down while
// the log wrote, the way the rebalancer re-homes degraded writes
// (FetchFragment → MigrationTarget → StoreFrame → NoteMigrated): once a
// degraded data member is stored on its new home, its slot holds no
// frame, the frame went back to the pool exactly once, and reads find
// the member at its new home.
func TestNoteMigratedReleasesHeldFrame(t *testing.T) {
	c := newTestCluster(t, 7)
	l, _ := c.open(t, Config{Width: 6, ParityShards: 2})
	defer l.Close()
	rc := &releaseCounter{n: make(map[wire.FID]int)}
	l.releaseFrame = rc.release

	victim := wire.ServerID(3)
	var addrs []BlockAddr
	for i := 0; i < 48; i++ {
		if i == 8 {
			c.flaky[victim-1].SetDown(true)
		}
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 1024)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var heldData []wire.FID
	for _, fid := range l.DegradedOn(victim) {
		if isHeld(l, fid) {
			heldData = append(heldData, fid)
		}
	}
	if len(heldData) == 0 {
		t.Fatal("no degraded data member held while server 3 was down")
	}

	if _, err := l.DrainServer(victim); err != nil {
		t.Fatal(err)
	}
	for _, fid := range l.DegradedOn(victim) {
		h, payload, err := l.FetchFragment(fid)
		if err != nil {
			t.Fatal(err)
		}
		target, err := l.MigrationTarget(&h, victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.StoreFrame(target, &h, payload); err != nil {
			t.Fatal(err)
		}
		l.NoteMigrated(fid, target.ID(), len(payload))
	}
	if left := l.DegradedFIDs(); len(left) != 0 {
		t.Fatalf("still degraded after the drain: %v", left)
	}
	if held := heldFrames(l); held != 0 {
		t.Fatalf("log still holds %d frame(s) after the drain", held)
	}
	for _, fid := range heldData {
		if n := rc.count(fid); n != 1 {
			t.Fatalf("migrated %v released %d times, want 1", fid, n)
		}
	}
	for i, addr := range addrs {
		if !bytes.Equal(mustRead(t, l, addr, 1024), blockPattern(i, 1024)) {
			t.Fatalf("block %d wrong after the drain", i)
		}
	}
	checkStripeRecords(t, l)
}

// TestMigrationTargetAvoidsStripeMembers: the chosen target never
// already holds another member of the same stripe.
func TestMigrationTargetAvoidsStripeMembers(t *testing.T) {
	c := newTestCluster(t, 5)
	l, _ := c.open(t, Config{Width: 3})
	defer l.Close()

	for i := 0; i < 12; i++ {
		mustAppend(t, l, 7, blockPattern(i, 1024))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	victim := wire.ServerID(1)
	if _, err := l.DrainServer(victim); err != nil {
		t.Fatal(err)
	}
	fids, err := l.ListServer(victim)
	if err != nil {
		t.Fatal(err)
	}
	for _, fid := range fids {
		h, _, err := l.FetchFrameFrom(victim, fid)
		if err != nil {
			t.Fatal(err)
		}
		target, err := l.MigrationTarget(&h, victim)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(h.Width); i++ {
			if i == int(h.Index) {
				continue
			}
			if _, ok, err := c.conns[target.ID()-1].Has(h.MemberFID(i)); err == nil && ok {
				t.Fatalf("target %d already holds stripe sibling %v", target.ID(), h.MemberFID(i))
			}
		}
	}
}

// TestRecoveryAcrossEpochs: a new session (fresh epoch numbering) must
// still recover and read stripes written under older sessions' later
// epochs — header epochs it has never seen degrade to discovery.
func TestRecoveryAcrossEpochs(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})

	var addrs []BlockAddr
	for i := 0; i < 6; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 1024)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	c.addServer(t, l)
	for i := 6; i < 12; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 1024)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over all four servers: epoch numbering restarts at 0, yet
	// fragments stamped epoch 1 by the previous session must be found.
	l2, rec := c.open(t, Config{})
	defer l2.Close()
	if rec.Fresh {
		t.Fatal("recovery found nothing")
	}
	for i, addr := range addrs {
		if !bytes.Equal(mustRead(t, l2, addr, 1024), blockPattern(i, 1024)) {
			t.Fatalf("block %d unreadable after recovery across epochs", i)
		}
	}
}
