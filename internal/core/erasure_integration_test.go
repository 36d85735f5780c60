package core

import (
	"bytes"
	"testing"

	"swarm/internal/erasure"
	"swarm/internal/wire"
)

// These tests exercise the multi-parity (Reed–Solomon) stripe path
// end-to-end: degraded writes with up to m unreachable servers, reads
// and rebuilds with two dead servers, recovery over a degraded cluster,
// and mixed-format logs where old XOR stripes and new RS stripes
// coexist.

// TestDegradedSetPerStripe is the regression test for the log's degraded
// bookkeeping: each stripe absorbs up to m unreachable members (tracked
// as a per-stripe server set), and the m+1'th failure is rejected
// instead of silently absorbed past the redundancy budget.
func TestDegradedSetPerStripe(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{ParityShards: 2})
	defer l.Close()

	if got := l.ParityShards(); got != 2 {
		t.Fatalf("ParityShards = %d, want 2", got)
	}
	if kind := l.Codec().Kind(); kind != erasure.KindRS {
		t.Fatalf("default codec for m=2 is %v, want rs", kind)
	}
	if st := l.Stats(); st.MinSpareRedundancy != 2 {
		t.Fatalf("healthy MinSpareRedundancy = %d, want 2", st.MinSpareRedundancy)
	}

	// Two servers die: every stripe loses at most two members, which
	// RS(4,2) covers, so Sync must succeed in degraded mode.
	c.flaky[1].SetDown(true)
	c.flaky[4].SetDown(true)
	var addrs []BlockAddr
	for i := 0; i < 40; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 600)))
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync with two servers down under RS(4,2): %v", err)
	}
	st := l.Stats()
	if st.DegradedWrites == 0 || st.DegradedStripes == 0 {
		t.Fatalf("no degraded writes recorded: %+v", st)
	}
	if st.MinSpareRedundancy != 0 {
		t.Fatalf("MinSpareRedundancy = %d with both parity budgets spent, want 0", st.MinSpareRedundancy)
	}
	// The degraded set holds fragments from BOTH dead servers.
	servers := map[uint8]bool{}
	for _, set := range degradedSets(l) {
		if len(set) > 2 {
			t.Fatalf("stripe degraded set holds %d members, cap is m=2", len(set))
		}
		for _, sid := range set {
			servers[uint8(sid)] = true
		}
	}
	if !servers[2] || !servers[5] {
		t.Fatalf("degraded sets name servers %v, want both 2 and 5", servers)
	}

	// Everything stays readable (read-your-writes + reconstruction).
	for i, addr := range addrs {
		got, err := l.Read(addr, 0, 600)
		if err != nil {
			t.Fatalf("read %d with two servers down: %v", i, err)
		}
		if !bytes.Equal(got, blockPattern(i, 600)) {
			t.Fatalf("read %d mismatch", i)
		}
	}

	// A third dead server exhausts the redundancy budget: the write
	// path must surface the error rather than absorb a third member.
	c.flaky[3].SetDown(true)
	for i := 0; i < 20; i++ {
		if _, err := l.AppendBlock(7, blockPattern(100+i, 600), nil); err != nil {
			break // setErr can surface on append once sticky
		}
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync succeeded with three servers down under RS(4,2)")
	}
}

// TestXORRejectsSecondFailure pins the baseline: with the classic
// single-parity XOR config, a second dead server must still exhaust
// redundancy exactly as before the pluggable-erasure refactor.
func TestXORRejectsSecondFailure(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{})
	defer l.Close()

	c.flaky[0].SetDown(true)
	c.flaky[2].SetDown(true)
	for i := 0; i < 20; i++ {
		if _, err := l.AppendBlock(7, blockPattern(i, 600), nil); err != nil {
			break
		}
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync succeeded with two servers down under XOR(1)")
	}
}

// TestRebuildTwoReplacedServersRS: both dead servers are replaced with
// empty hardware; RebuildServer reconstructs each from the surviving
// k-of-n members, restoring full 2-failure tolerance.
func TestRebuildTwoReplacedServersRS(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{ParityShards: 2})
	var addrs []BlockAddr
	for i := 0; i < 60; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 600)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Replace servers 2 and 5 (IDs 3 and 6) with empty disks.
	c.replaceServer(t, 2)
	c.replaceServer(t, 5)

	l2, _ := c.open(t, Config{ParityShards: 2})
	defer l2.Close()
	for _, victim := range []int{2, 5} {
		rebuilt, err := l2.RebuildServer(wire.ServerID(victim + 1))
		if err != nil {
			t.Fatalf("rebuild server %d: %v", victim+1, err)
		}
		if rebuilt == 0 {
			t.Fatalf("rebuild of server %d restored nothing", victim+1)
		}
	}

	// Full redundancy is back: kill TWO different servers and every
	// block must still read via reconstruction.
	c.flaky[0].SetDown(true)
	c.flaky[3].SetDown(true)
	for i, addr := range addrs {
		got, err := l2.Read(addr, 0, 600)
		if err != nil {
			t.Fatalf("read %d after rebuild with two other servers down: %v", i, err)
		}
		if !bytes.Equal(got, blockPattern(i, 600)) {
			t.Fatalf("block %d corrupted after rebuild", i)
		}
	}
	c.flaky[0].SetDown(false)
	c.flaky[3].SetDown(false)

	// Every closed stripe verifies parity-clean.
	for _, s := range l2.usage.Stripes() {
		u, _ := l2.usage.Get(s)
		if !u.Closed {
			continue
		}
		if err := l2.VerifyStripe(s); err != nil {
			t.Fatalf("stripe %d after double rebuild: %v", s, err)
		}
	}
}

// TestRecoveryWithTwoServersDownRS: the client crashes while two of six
// servers are dead; recovery (rollForward) must still find the
// checkpoint and reconstruct records from the surviving k members.
func TestRecoveryWithTwoServersDownRS(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{ParityShards: 2})
	var addrs []BlockAddr
	for i := 0; i < 40; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 500)))
	}
	if _, err := l.WriteCheckpoint(7, []byte("ck-rs")); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 50; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 500)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	// Two servers die; the client crashes (no Close); a fresh session
	// must recover and read everything back.
	c.flaky[1].SetDown(true)
	c.flaky[3].SetDown(true)
	l2, rec := reopen(t, c, Config{ParityShards: 2})
	defer l2.Close()
	if string(rec.Service(7).Checkpoint) != "ck-rs" {
		t.Fatalf("checkpoint = %q", rec.Service(7).Checkpoint)
	}
	for i, addr := range addrs {
		got, err := l2.Read(addr, 0, 500)
		if err != nil {
			t.Fatalf("read %d with two servers down: %v", i, err)
		}
		if !bytes.Equal(got, blockPattern(i, 500)) {
			t.Fatalf("read %d mismatch", i)
		}
	}

	// Servers return; VerifyStripe recomputes both RS parities from the
	// stored data and matches them against the stored parity fragments.
	c.flaky[1].SetDown(false)
	c.flaky[3].SetDown(false)
	for _, s := range l2.usage.Stripes() {
		u, _ := l2.usage.Get(s)
		if !u.Closed {
			continue
		}
		if err := l2.VerifyStripe(s); err != nil {
			t.Fatalf("stripe %d after recovery: %v", s, err)
		}
	}
}

// TestMixedFormatLog: a log written under the default XOR(1) geometry is
// reopened with RS(4,2); XOR stripes and RS stripes coexist in one log,
// and both read cleanly — including through a dead server, which forces
// reconstruction to pick the right codec per stripe from the codec and
// parity count in its fragment headers rather than the client config.
func TestMixedFormatLog(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{}) // default: XOR, one parity shard
	if l.ParityShards() != 1 || l.Codec().Kind() != erasure.KindXOR {
		t.Fatalf("default geometry = %v(%d)", l.Codec().Kind(), l.ParityShards())
	}
	var oldAddrs []BlockAddr
	for i := 0; i < 30; i++ {
		oldAddrs = append(oldAddrs, mustAppend(t, l, 7, blockPattern(i, 700)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reconfigure the SAME cluster to RS(4,2) and append more.
	l2, _ := c.open(t, Config{ParityShards: 2, Codec: erasure.KindRS})
	defer l2.Close()
	var newAddrs []BlockAddr
	for i := 0; i < 30; i++ {
		newAddrs = append(newAddrs, mustAppend(t, l2, 7, blockPattern(1000+i, 700)))
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}

	readAll := func(stage string) {
		t.Helper()
		for i, addr := range oldAddrs {
			got, err := l2.Read(addr, 0, 700)
			if err != nil {
				t.Fatalf("%s: old stripe read %d: %v", stage, i, err)
			}
			if !bytes.Equal(got, blockPattern(i, 700)) {
				t.Fatalf("%s: old stripe read %d mismatch", stage, i)
			}
		}
		for i, addr := range newAddrs {
			got, err := l2.Read(addr, 0, 700)
			if err != nil {
				t.Fatalf("%s: new stripe read %d: %v", stage, i, err)
			}
			if !bytes.Equal(got, blockPattern(1000+i, 700)) {
				t.Fatalf("%s: new stripe read %d mismatch", stage, i)
			}
		}
	}
	readAll("healthy")

	// One dead server: BOTH geometries reconstruct (the old stripes as
	// their headers' XOR, the new as their headers' RS).
	c.flaky[2].SetDown(true)
	readAll("one server down")
	c.flaky[2].SetDown(false)

	// VerifyStripe is header-driven too: every closed stripe of either
	// format checks out under the reconfigured client.
	for _, s := range l2.usage.Stripes() {
		u, _ := l2.usage.Get(s)
		if !u.Closed {
			continue
		}
		if err := l2.VerifyStripe(s); err != nil {
			t.Fatalf("mixed-format stripe %d: %v", s, err)
		}
	}
}
