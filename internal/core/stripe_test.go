package core

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"swarm/internal/wire"
)

// Test access to the log's stripe records (stripeState), each under mu.

// serverOf returns fid's recorded server, 0 when unknown.
func serverOf(l *Log, fid wire.FID) wire.ServerID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.serverOfLocked(fid)
}

// locations returns every member location the log has recorded.
func locations(l *Log) map[wire.FID]wire.ServerID {
	out := make(map[wire.FID]wire.ServerID)
	for _, fid := range l.membersWhere(func(m *memberSlot) bool { return m.server != 0 }) {
		out[fid] = serverOf(l, fid)
	}
	return out
}

// forgetLocation drops fid's recorded server.
func forgetLocation(l *Log, fid wire.FID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m := l.slotLocked(fid); m != nil {
		m.server = 0
	}
}

// forgetGeometries drops every stripe's geometry.
func forgetGeometries(l *Log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.stripes {
		s.geom = Header{}
	}
}

// geometryOf returns stripe's geometry and whether the log holds one.
func geometryOf(l *Log, stripe uint64) (Header, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.stripes[stripe]; s != nil && s.geom.HasMemberLens() {
		return s.geom, true
	}
	return Header{}, false
}

// emptyOf returns stripe's empty-member bits.
func emptyOf(l *Log, stripe uint64) uint16 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.stripes[stripe]; s != nil {
		return s.empty
	}
	return 0
}

// forgetEmpty drops stripe's empty-member bits.
func forgetEmpty(l *Log, stripe uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.stripes[stripe]; s != nil {
		s.empty = 0
	}
}

// degradedSets returns each stripe's degraded members, each with the
// server its store was sent to.
func degradedSets(l *Log) map[uint64]map[wire.FID]wire.ServerID {
	out := make(map[uint64]map[wire.FID]wire.ServerID)
	for _, fid := range l.DegradedFIDs() {
		stripe := l.stripeOf(fid.Seq())
		if out[stripe] == nil {
			out[stripe] = make(map[wire.FID]wire.ServerID)
		}
		out[stripe][fid] = serverOf(l, fid)
	}
	return out
}

// isHeld reports whether fid's slot holds a frame.
func isHeld(l *Log, fid wire.FID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.slotLocked(fid)
	return m != nil && m.frame != nil
}

// heldFrames counts the frames held in member slots.
func heldFrames(l *Log) int {
	return len(l.membersWhere(func(m *memberSlot) bool { return m.frame != nil }))
}

// checkStripeRecords checks the per-stripe invariant under mu: every
// held frame sits in the slot of its own stripe's record, no record has
// more degraded members than the log's m, and every record is of a
// stripe the log has opened or learned about: none past the append
// point, and none holding nothing.
func checkStripeRecords(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.stripeOf(l.nextDataSeq(l.seq))
	for stripe, s := range l.stripes {
		if stripe > next || stripe == next && (l.cur == nil || l.cur.stripe != stripe) {
			t.Errorf("stripe %d has a record past the append point (stripe %d)", stripe, next)
		}
		if s.blank() {
			t.Errorf("stripe %d has a record holding nothing", stripe)
		}
		if n := s.degradedMembers(); n > l.nparity {
			t.Errorf("stripe %d has %d degraded members, m = %d", stripe, n, l.nparity)
		}
		for i, m := range s.members {
			if i >= l.width {
				if m.server != 0 || m.frame != nil || m.storing || m.degraded {
					t.Errorf("stripe %d slot %d past width %d holds %+v", stripe, i, l.width, m)
				}
				continue
			}
			if m.frame == nil {
				continue
			}
			want := wire.MakeFID(l.client, stripe*uint64(l.width)+uint64(i))
			if h, err := DecodeHeader(m.frame); err != nil || h.FID != want || h.StripeID != stripe {
				t.Errorf("stripe %d slot %d holds the frame of %v (%v), want %v", stripe, i, h.FID, err, want)
			}
		}
	}
}

// TestReclaimRetryAfterFailedDelete fails one member's delete with a
// definitive server error after membership changes have moved the head
// placement of its slot. The failed reclaim keeps the member's stripe
// record, so the cleaner's retry deletes it where it is stored instead
// of asking the head view's server, hearing "not found" and leaving an
// orphan behind.
func TestReclaimRetryAfterFailedDelete(t *testing.T) {
	c := newTestCluster(t, 3)
	l, _ := c.open(t, Config{})
	defer l.Close()
	for i := 0; i < 20; i++ {
		mustAppend(t, l, 7, blockPattern(i, 300))
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	c.addServer(t, l)
	c.addServer(t, l)
	// The first stored member whose slot the head view places elsewhere.
	var victim wire.FID
	var holder wire.ServerID
	for seq := uint64(0); victim == 0; seq++ {
		if seq >= 20*uint64(l.Width()) {
			t.Fatal("no member whose head-epoch placement moved")
		}
		fid := wire.MakeFID(testClient, seq)
		sid := serverOf(l, fid)
		head := l.place.Resolve(l.place.Epoch(), l.stripeOf(seq), int(seq%uint64(l.Width())))
		if sid != 0 && head.ID() != sid {
			victim, holder = fid, sid
		}
	}
	stripe := l.stripeOf(victim.Seq())
	c.flaky[holder-1].FailNext(1, &wire.StatusError{Status: wire.StatusInternal})
	if err := l.ReclaimStripe(stripe); err == nil {
		t.Fatal("reclaim succeeded through a failed delete")
	}
	checkStripeRecords(t, l)
	if err := l.ReclaimStripe(stripe); err != nil {
		t.Fatalf("retry: %v", err)
	}
	for id := wire.ServerID(1); int(id) <= len(c.conns); id++ {
		for _, fid := range c.fragsOn(t, id) {
			if l.stripeOf(fid.Seq()) == stripe {
				t.Errorf("reclaimed stripe %d left %v on server %d", stripe, fid, id)
			}
		}
	}
	checkStripeRecords(t, l)
}

// TestReclaimEveryStripeLeavesNoStripeRecord writes an RS(4,2) log with
// one server down for part of its writes and syncs, reads every block
// back degraded, then reclaims every stripe: no stripe record, cached
// fragment or usage entry may outlive them, and the only state left is
// the deferred deletes of the down server's members.
func TestReclaimEveryStripeLeavesNoStripeRecord(t *testing.T) {
	for _, prealloc := range []bool{false, true} {
		t.Run(fmt.Sprintf("prealloc=%v", prealloc), func(t *testing.T) {
			c := newTestCluster(t, 6)
			l, _ := c.open(t, Config{ParityShards: 2, PreallocStripes: prealloc})
			defer l.Close()
			var addrs []BlockAddr
			var blocks [][]byte
			write := func(n int) {
				for i := 0; i < n; i++ {
					b := blockPattern(len(blocks), 200+len(blocks)*37%900)
					addrs, blocks = append(addrs, mustAppend(t, l, 7, b)), append(blocks, b)
					if i%9 == 8 {
						if err := l.Sync(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			write(40)
			const down = wire.ServerID(3)
			c.flaky[down-1].SetDown(true)
			write(40)
			if len(l.DegradedFIDs()) == 0 {
				t.Fatal("no degraded writes while a server was down")
			}
			for i, addr := range addrs {
				if got := mustRead(t, l, addr, len(blocks[i])); !bytes.Equal(got, blocks[i]) {
					t.Fatalf("block %d read back wrong", i)
				}
			}
			if l.Stats().Reconstructions == 0 {
				t.Fatal("no read was degraded")
			}
			checkStripeRecords(t, l)

			// The down server's members: each is deferred, not deleted.
			want := map[wire.FID]bool{}
			stripes := l.usage.Stripes()
			for _, s := range stripes {
				for i := 0; i < l.width; i++ {
					fid := wire.MakeFID(testClient, s*uint64(l.width)+uint64(i))
					if l.connAt(s, i).ID() == down && !l.isEmpty(fid) {
						want[fid] = true
					}
				}
			}
			for _, s := range stripes {
				if err := l.ReclaimStripe(s); err != nil {
					t.Fatalf("reclaim stripe %d: %v", s, err)
				}
			}
			checkStripeRecords(t, l)
			l.mu.Lock()
			records, pending := len(l.stripes), maps.Clone(l.pendingDel)
			l.mu.Unlock()
			if records != 0 {
				t.Errorf("%d stripe records outlive their stripes", records)
			}
			l.recon.mu.Lock()
			cached, fifo, rented := len(l.recon.m), len(l.recon.fifo), len(l.recon.rented)
			l.recon.mu.Unlock()
			if cached+fifo+rented != 0 {
				t.Errorf("fragment cache keeps %d fragments, %d FIFO entries, %d rentals", cached, fifo, rented)
			}
			if left := l.usage.Stripes(); len(left) != 0 {
				t.Errorf("usage table keeps stripes %v", left)
			}
			for fid := range want {
				if pending[fid] != down {
					t.Errorf("member %v on the down server is not deferred (%d)", fid, pending[fid])
				}
			}
			for fid, id := range pending {
				s, i := l.stripeOf(fid.Seq()), int(fid.Seq()%uint64(l.width))
				if id != down || l.connAt(s, i).ID() != down {
					t.Errorf("deferred delete of %v on server %d is not the down server's member", fid, id)
				}
			}
			// With preallocation a released reservation on the down
			// server is deferred too.
			if len(pending) < len(want) || !prealloc && len(pending) != len(want) {
				t.Errorf("%d deferred deletes for the down server's %d members", len(pending), len(want))
			}
			t.Logf("%d stripes reclaimed; %d deletes deferred on server %d", len(stripes), len(pending), down)
		})
	}
}
