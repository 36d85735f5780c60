package core

import (
	"bytes"
	"testing"

	"swarm/internal/wire"
)

// reopen abandons l (simulating a client crash: in-memory state lost, no
// Close) and opens a fresh log over the same servers.
func reopen(t *testing.T, c *cluster, cfg Config) (*Log, *Recovery) {
	t.Helper()
	return c.open(t, cfg)
}

func TestRecoveryFreshLog(t *testing.T) {
	c := newTestCluster(t, 2)
	l, rec := c.open(t, Config{})
	defer l.Close()
	if !rec.Fresh || len(rec.Services) != 0 {
		t.Fatalf("fresh recovery = %+v", rec)
	}
}

func TestRecoveryWithoutCheckpointReplaysFromStart(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	mustAppend(t, l, 7, blockPattern(0, 200))
	if _, err := l.AppendRecord(7, []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(7, []byte("r2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close): reopen and check replay.
	l2, rec := reopen(t, c, Config{})
	defer l2.Close()
	if rec.Fresh {
		t.Fatal("recovery claims fresh log")
	}
	svc := rec.Service(7)
	if svc.HasCheckpoint {
		t.Fatal("phantom checkpoint")
	}
	// Expect: create record for the block, then r1, then r2 in order.
	var kinds []EntryKind
	var payloads []string
	for _, r := range svc.Records {
		kinds = append(kinds, r.Kind)
		payloads = append(payloads, string(r.Payload))
	}
	if len(svc.Records) != 3 || kinds[0] != EntryCreate || kinds[1] != EntryRecord || kinds[2] != EntryRecord {
		t.Fatalf("records = %v", kinds)
	}
	if payloads[1] != "r1" || payloads[2] != "r2" {
		t.Fatalf("payloads = %v", payloads)
	}
}

func TestRecoveryCheckpointBoundsReplay(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	// Pre-checkpoint state.
	if _, err := l.AppendRecord(7, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteCheckpoint(7, []byte("state@ckpt")); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint records.
	if _, err := l.AppendRecord(7, []byte("new1")); err != nil {
		t.Fatal(err)
	}
	addr := mustAppend(t, l, 7, blockPattern(5, 300))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	l2, rec := reopen(t, c, Config{})
	defer l2.Close()
	svc := rec.Service(7)
	if !svc.HasCheckpoint || string(svc.Checkpoint) != "state@ckpt" {
		t.Fatalf("checkpoint = %q (has=%v)", svc.Checkpoint, svc.HasCheckpoint)
	}
	// "old" must NOT be replayed; "new1" and the block's create must.
	for _, r := range svc.Records {
		if r.Kind == EntryRecord && string(r.Payload) == "old" {
			t.Fatal("pre-checkpoint record replayed")
		}
	}
	var sawNew, sawCreate bool
	for _, r := range svc.Records {
		if r.Kind == EntryRecord && string(r.Payload) == "new1" {
			sawNew = true
		}
		if r.Kind == EntryCreate {
			cr, err := DecodeCreateRecord(r.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if cr.Addr == addr {
				sawCreate = true
			}
		}
	}
	if !sawNew || !sawCreate {
		t.Fatalf("missing replays: new=%v create=%v", sawNew, sawCreate)
	}
	// The recovered log can read the pre-crash block.
	got, err := l2.Read(addr, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blockPattern(5, 300)) {
		t.Fatal("pre-crash block corrupted")
	}
}

func TestRecoveryPerServiceCheckpoints(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	if _, err := l.AppendRecord(1, []byte("a-before")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteCheckpoint(1, []byte("A1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(2, []byte("b-early")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(1, []byte("a-mid")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteCheckpoint(2, []byte("B1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(1, []byte("a-after")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecord(2, []byte("b-after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	l2, rec := reopen(t, c, Config{})
	defer l2.Close()

	s1, s2 := rec.Service(1), rec.Service(2)
	if string(s1.Checkpoint) != "A1" || string(s2.Checkpoint) != "B1" {
		t.Fatalf("checkpoints = %q %q", s1.Checkpoint, s2.Checkpoint)
	}
	got1 := recordStrings(s1.Records)
	got2 := recordStrings(s2.Records)
	want1 := []string{"a-mid", "a-after"}
	want2 := []string{"b-after"}
	if !eqStrings(got1, want1) {
		t.Fatalf("svc1 records = %v, want %v", got1, want1)
	}
	if !eqStrings(got2, want2) {
		t.Fatalf("svc2 records = %v, want %v", got2, want2)
	}
}

func recordStrings(recs []ReplayEntry) []string {
	var out []string
	for _, r := range recs {
		if r.Kind == EntryRecord {
			out = append(out, string(r.Payload))
		}
	}
	return out
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecoveryUsageTableRestored(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	addr := mustAppend(t, l, 7, blockPattern(0, 400))
	if _, err := l.WriteCheckpoint(7, []byte("s")); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint activity to roll forward.
	addr2 := mustAppend(t, l, 7, blockPattern(1, 350))
	if err := l.DeleteBlock(addr, 400, 7); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	wantStripe1, _ := l.usage.Get(l.stripeOf(addr.FID.Seq()))
	wantStripe2, _ := l.usage.Get(l.stripeOf(addr2.FID.Seq()))

	l2, _ := reopen(t, c, Config{})
	defer l2.Close()
	got1, ok1 := l2.usage.Get(l.stripeOf(addr.FID.Seq()))
	got2, ok2 := l2.usage.Get(l.stripeOf(addr2.FID.Seq()))
	if !ok1 || !ok2 {
		t.Fatalf("stripes missing after recovery: %v %v", ok1, ok2)
	}
	if got1.Live != wantStripe1.Live || got1.Total != wantStripe1.Total {
		t.Fatalf("stripe1 usage %+v, want %+v", got1, wantStripe1)
	}
	if got2.Live != wantStripe2.Live || got2.Total != wantStripe2.Total {
		t.Fatalf("stripe2 usage %+v, want %+v", got2, wantStripe2)
	}
}

func TestRecoveryAppendsContinueOnFreshStripe(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	mustAppend(t, l, 7, blockPattern(0, 100))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var maxBefore uint64
	for fid := range locations(l) {
		if fid.Seq() > maxBefore {
			maxBefore = fid.Seq()
		}
	}

	l2, rec := reopen(t, c, Config{})
	defer l2.Close()
	addr := mustAppend(t, l2, 7, blockPattern(1, 100))
	if addr.FID.Seq() <= maxBefore {
		t.Fatalf("new block at seq %d, old max %d", addr.FID.Seq(), maxBefore)
	}
	if rec.MaxSeq != maxBefore {
		t.Fatalf("MaxSeq = %d, want %d", rec.MaxSeq, maxBefore)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryWithServerDown(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{})
	var addrs []BlockAddr
	for i := 0; i < 40; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 500)))
	}
	if _, err := l.WriteCheckpoint(7, []byte("ck")); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 50; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 500)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	// One server dies; the client crashes; recovery must still find the
	// checkpoint and reconstruct any records/blocks on the dead server.
	c.flaky[2].SetDown(true)
	l2, rec := reopen(t, c, Config{})
	defer l2.Close()
	if string(rec.Service(7).Checkpoint) != "ck" {
		t.Fatalf("checkpoint = %q", rec.Service(7).Checkpoint)
	}
	for i, addr := range addrs {
		got, err := l2.Read(addr, 0, 500)
		if err != nil {
			t.Fatalf("read %d with server down: %v", i, err)
		}
		if !bytes.Equal(got, blockPattern(i, 500)) {
			t.Fatalf("read %d mismatch", i)
		}
	}
	c.flaky[2].SetDown(false)
}

func TestRecoveryChainedCheckpoints(t *testing.T) {
	// Multiple checkpoints in sequence: recovery must pick the newest.
	c := newTestCluster(t, 2)
	l, _ := c.open(t, Config{})
	for i := 0; i < 5; i++ {
		if _, err := l.WriteCheckpoint(7, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	l2, rec := reopen(t, c, Config{})
	defer l2.Close()
	if got := string(rec.Service(7).Checkpoint); got != "e" {
		t.Fatalf("newest checkpoint = %q, want e", got)
	}
}

func TestRecoveryAfterReclaim(t *testing.T) {
	// Cleaned (reclaimed) stripes leave holes in the FID space that
	// recovery must skip without inventing records.
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	for i := 0; i < 60; i++ {
		mustAppend(t, l, 7, blockPattern(i, 600))
	}
	if _, err := l.WriteCheckpoint(7, []byte("ck")); err != nil {
		t.Fatal(err)
	}
	stripes := l.usage.Stripes()
	if err := l.ReclaimStripe(stripes[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l2, rec := reopen(t, c, Config{})
	defer l2.Close()
	if string(rec.Service(7).Checkpoint) != "ck" {
		t.Fatalf("checkpoint = %q", rec.Service(7).Checkpoint)
	}
	if len(rec.Holes) != 0 {
		t.Fatalf("holes reported for reclaimed stripe: %v", rec.Holes)
	}
}

func TestRecoverySurvivesTornTailFragment(t *testing.T) {
	// A fragment whose store never completed (client died mid-pipeline)
	// simply doesn't exist; recovery reports the tail as holes only when
	// a sibling proves the stripe existed. Two fragment-sized blocks fill
	// both data slots of the width-3 stripe, and the first is torn, so
	// the second survives as that sibling (a stripe closed short stores
	// no member for the slots it did not fill).
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	for i := 0; i < 2; i++ {
		mustAppend(t, l, 7, blockPattern(i, l.MaxBlockSize()))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Manually delete the first data fragment to simulate a torn stripe,
	// then also delete the parity so reconstruction fails.
	var dataFID, parityFID wire.FID
	found := false
	for fid := range locations(l) {
		h, _, err := l.fetchDirect(fid)
		if err != nil {
			continue
		}
		if h.Kind == FragData && h.DataLen > 0 && (!found || fid < dataFID) {
			dataFID = fid
			parityFID = h.MemberFID(int(h.StripeID % uint64(h.Width)))
			found = true
		}
	}
	if !found {
		t.Fatal("no data fragment found")
	}
	if err := l.place.Conn(serverOf(l, dataFID)).Delete(dataFID); err != nil {
		t.Fatal(err)
	}
	if err := l.place.Conn(serverOf(l, parityFID)).Delete(parityFID); err != nil {
		t.Fatal(err)
	}

	l2, rec := reopen(t, c, Config{})
	defer l2.Close()
	foundHole := false
	for _, h := range rec.Holes {
		if h == dataFID {
			foundHole = true
		}
	}
	if !foundHole {
		t.Fatalf("missing data fragment not reported as hole: %v", rec.Holes)
	}
}
