package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"swarm/internal/disk"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// A Sync closes its stripe short: the data slots it has not filled are
// empty members, never stored, and read as zeros. These tests pin what
// that layout must survive.

// shortCase is one geometry of a stripe closed short: blocks
// fragment-sized blocks fill that many data members, and the rest of
// the stripe's data slots stay empty.
type shortCase struct {
	name    string
	servers int
	parity  int
	blocks  int
}

var shortCases = []shortCase{
	{"xor/1data", 4, 1, 1},
	{"xor/2data", 4, 1, 2},
	{"rs42/1data", 6, 2, 1},
	{"rs42/2data", 6, 2, 2},
}

// writeShort opens a log on a fresh cluster, fills sc.blocks data
// members of stripe 0 and Syncs, closing the stripe short.
func writeShort(t *testing.T, sc shortCase) (*cluster, *Log, []BlockAddr, [][]byte) {
	t.Helper()
	c := newTestCluster(t, sc.servers)
	l, _ := c.open(t, Config{ParityShards: sc.parity})
	var addrs []BlockAddr
	var blocks [][]byte
	for i := 0; i < sc.blocks; i++ {
		b := blockPattern(i, l.MaxBlockSize())
		addrs = append(addrs, mustAppend(t, l, 7, b))
		blocks = append(blocks, b)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return c, l, addrs, blocks
}

// storedFIDs lists every fragment of testClient on the cluster's
// stores, sorted.
func storedFIDs(c *cluster) []wire.FID {
	var out []wire.FID
	for _, st := range c.stores {
		out = append(out, st.List(testClient)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// slotsHeld sums the slots the cluster's stores hold, reservations
// included.
func slotsHeld(c *cluster) int {
	n := 0
	for _, st := range c.stores {
		s := st.Stats()
		n += int(s.TotalSlots - s.FreeSlots)
	}
	return n
}

// checkReadable reopens the log and checks recovery found no holes,
// replayed one create record per block, and reads every block back
// byte-exact.
func checkReadable(t *testing.T, c *cluster, parity int, addrs []BlockAddr, blocks [][]byte) *Log {
	t.Helper()
	l, rec := c.open(t, Config{ParityShards: parity})
	if len(rec.Holes) != 0 {
		t.Fatalf("recovery reported holes %v", rec.Holes)
	}
	creates := 0
	for _, r := range rec.Service(7).Records {
		if r.Kind == EntryCreate {
			creates++
		}
	}
	if creates != len(blocks) {
		t.Fatalf("recovery replayed %d create records, want %d", creates, len(blocks))
	}
	for i, addr := range addrs {
		got, err := l.Read(addr, 0, uint32(len(blocks[i])))
		if err != nil {
			t.Fatalf("read block %d: %v", i, err)
		}
		if !bytes.Equal(got, blocks[i]) {
			t.Fatalf("block %d differs", i)
		}
	}
	return l
}

// subsets returns every subset of items with 1..max elements.
func subsets(items []wire.FID, max int) [][]wire.FID {
	var out [][]wire.FID
	for mask := 1; mask < 1<<len(items); mask++ {
		var s []wire.FID
		for i := range items {
			if mask&(1<<i) != 0 {
				s = append(s, items[i])
			}
		}
		if len(s) <= max {
			out = append(out, s)
		}
	}
	return out
}

// TestShortStripeLosses makes every set of at most m stored members of a
// short stripe unreachable — both parity members, and the last data
// member with a parity member, among them — and checks that recovery
// finds no holes, every acked block reads back, and rebuilding the lost
// servers restores exactly the stored members and never an empty one.
func TestShortStripeLosses(t *testing.T) {
	for _, sc := range shortCases {
		c, l, _, _ := writeShort(t, sc)
		stored := storedFIDs(c)
		if want := sc.blocks + sc.parity; len(stored) != want {
			t.Fatalf("%s: %d members stored, want %d: %v", sc.name, len(stored), want, stored)
		}
		l.Close()
		for _, lost := range subsets(stored, sc.parity) {
			t.Run(fmt.Sprintf("%s/lose%v", sc.name, lost), func(t *testing.T) {
				c, l, addrs, blocks := writeShort(t, sc)
				l.Close()
				var down []wire.ServerID
				for _, fid := range lost {
					sid := serverOf(l, fid)
					down = append(down, sid)
					c.flaky[sid-1].SetDown(true)
				}
				l2 := checkReadable(t, c, sc.parity, addrs, blocks)
				defer l2.Close()

				// Replace the lost servers' disks and rebuild every server:
				// only the lost members come back.
				for i, fid := range lost {
					c.flaky[down[i]-1].SetDown(false)
					if err := c.stores[down[i]-1].Delete(testClient, fid); err != nil {
						t.Fatal(err)
					}
				}
				rebuilt := 0
				for id := 1; id <= sc.servers; id++ {
					n, err := l2.RebuildServer(wire.ServerID(id))
					if err != nil {
						t.Fatalf("rebuild server %d: %v", id, err)
					}
					rebuilt += n
				}
				if rebuilt != len(lost) {
					t.Fatalf("rebuilt %d members, lost %d", rebuilt, len(lost))
				}
				if got := storedFIDs(c); fmt.Sprint(got) != fmt.Sprint(stored) {
					t.Fatalf("after rebuild the cluster holds %v, want %v", got, stored)
				}
				if err := l2.VerifyStripe(0); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestShortStripeClientCrash leaves the server state a client crash
// between a short stripe's data store and its parity stores would: in
// one order only the data members were stored, in the other only the
// parity members. Either way recovery finds no holes and the stripe's
// blocks read back — from the data members, or decoded from the parity
// and the empty members its headers name.
func TestShortStripeClientCrash(t *testing.T) {
	for _, sc := range []shortCase{shortCases[0], shortCases[2]} {
		for _, storedKind := range []uint8{FragData, FragParity} {
			t.Run(fmt.Sprintf("%s/only-kind-%d-stored", sc.name, storedKind), func(t *testing.T) {
				c := newTestCluster(t, sc.servers)
				l, _ := c.open(t, Config{ParityShards: sc.parity})
				b := blockPattern(1, l.MaxBlockSize())
				addr := mustAppend(t, l, 7, b)
				// The stores that the crash cuts off never reach their
				// servers: take those servers down for the Sync, then drop
				// the log without closing it.
				for idx := 0; idx < l.width; idx++ {
					_, isParity := l.parityOrdinal(0, idx)
					if isParity != (storedKind == FragParity) {
						c.flaky[l.connAt(0, idx).ID()-1].SetDown(true)
					}
				}
				_ = l.Sync()
				for _, f := range c.flaky {
					f.SetDown(false)
				}
				for _, fid := range storedFIDs(c) {
					if h, _, err := l.fetchDirect(fid); err != nil || h.Kind != storedKind {
						t.Fatalf("member %v stored with kind %d (%v), want only kind %d", fid, h.Kind, err, storedKind)
					}
				}
				checkReadable(t, c, sc.parity, []BlockAddr{addr}, [][]byte{b}).Close()
			})
		}
	}
}

// cutDisk power-cuts its CrashDisk at the first Sync after it is armed:
// that Sync and every later I/O fail, and unsynced writes are lost.
type cutDisk struct {
	*disk.CrashDisk
	armed atomic.Bool
}

func (d *cutDisk) Sync() error {
	if d.armed.Load() {
		d.Crash()
	}
	return d.CrashDisk.Sync()
}

// newCutCluster is a cluster of n servers whose disks can be power-cut.
func newCutCluster(t *testing.T, n int) (*cluster, []*cutDisk) {
	t.Helper()
	c := &cluster{}
	cuts := make([]*cutDisk, n)
	for i := 0; i < n; i++ {
		cuts[i] = &cutDisk{CrashDisk: disk.NewCrashDisk(disk.NewMemDisk(4 << 20))}
		st, err := server.Format(cuts[i], server.Config{FragmentSize: testFragSize})
		if err != nil {
			t.Fatal(err)
		}
		fl := transport.NewFlaky(transport.NewLocal(wire.ServerID(i+1), st, testClient))
		c.stores = append(c.stores, st)
		c.flaky = append(c.flaky, fl)
		c.conns = append(c.conns, fl)
	}
	return c, cuts
}

// restart reopens a power-cut server from what its disk made durable.
func (c *cluster) restart(t *testing.T, cuts []*cutDisk, id wire.ServerID) {
	t.Helper()
	st, err := server.Open(cuts[id-1].Backing())
	if err != nil {
		t.Fatal(err)
	}
	fl := transport.NewFlaky(transport.NewLocal(id, st, testClient))
	c.stores[id-1], c.flaky[id-1], c.conns[id-1] = st, fl, fl
}

// serverImages reads every fragment each server holds, by server.
func serverImages(t *testing.T, c *cluster) []map[wire.FID][]byte {
	t.Helper()
	out := make([]map[wire.FID][]byte, len(c.stores))
	for i, st := range c.stores {
		out[i] = make(map[wire.FID][]byte)
		for _, fid := range st.List(0) {
			size, _ := st.Has(fid)
			data, _, err := st.Read(testClient, fid, 0, size)
			if err != nil {
				t.Fatalf("server %d: read %v: %v", i+1, fid, err)
			}
			out[i][fid] = data
		}
	}
	return out
}

// TestShortStripePowerCut cuts the power of one server in the middle of
// a Sync that closes a stripe short — the server of its data member, or
// of a parity member — then restarts that server from what its disk
// made durable. Recovery finds no holes, every block of the earlier
// acked Sync reads back, and so does the interrupted Sync's block: the
// members that did reach their servers cover it.
func TestShortStripePowerCut(t *testing.T) {
	for _, victimParity := range []bool{false, true} {
		t.Run(fmt.Sprintf("parity=%v", victimParity), func(t *testing.T) {
			c, cuts := newCutCluster(t, 6)
			cfg := Config{ParityShards: 2}
			l, _ := c.open(t, cfg)
			var addrs []BlockAddr
			var blocks [][]byte
			for i := 0; i < 2; i++ {
				blocks = append(blocks, blockPattern(i, l.MaxBlockSize()))
				addrs = append(addrs, mustAppend(t, l, 7, blocks[i]))
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, blockPattern(2, l.MaxBlockSize()))
			addrs = append(addrs, mustAppend(t, l, 7, blocks[2]))
			stripe := l.stripeOf(addrs[2].FID.Seq())
			victim := l.connAt(stripe, int(addrs[2].FID.Seq()%uint64(l.width))).ID()
			if victimParity {
				victim = l.connAt(stripe, l.paritySlot(stripe, 0)).ID()
			}
			cuts[victim-1].armed.Store(true)
			if err := l.Sync(); err == nil {
				t.Fatal("Sync across a power cut reported success")
			}

			c.restart(t, cuts, victim)
			l2 := checkReadable(t, c, cfg.ParityShards, addrs, blocks)
			defer l2.Close()
			if err := l2.VerifyStripe(l2.stripeOf(addrs[0].FID.Seq())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShortStripePowerCutBesideNeighbours cuts the power of one server
// in the middle of a Sync whose short members land beside the short
// members of earlier Syncs: one-block Syncs store members of a few
// units, so the interrupted member's units share a fragment-sized span
// with its live neighbours. After the server restarts from its durable
// state, every fragment stored before the cut is byte-exact on every
// server, and every block reads back.
func TestShortStripePowerCutBesideNeighbours(t *testing.T) {
	c, cuts := newCutCluster(t, 6)
	cfg := Config{ParityShards: 2}
	l, _ := c.open(t, cfg)
	var addrs []BlockAddr
	var blocks [][]byte
	add := func(i int) BlockAddr {
		blocks = append(blocks, blockPattern(i, 300))
		addrs = append(addrs, mustAppend(t, l, 7, blocks[i]))
		return addrs[i]
	}
	for i := 0; i < 6; i++ {
		add(i)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	before := serverImages(t, c)
	addr := add(6)
	victim := l.connAt(l.stripeOf(addr.FID.Seq()), int(addr.FID.Seq()%uint64(l.width))).ID()
	if len(before[victim-1]) == 0 {
		t.Fatalf("server %d holds no earlier fragment to sit beside", victim)
	}
	if st := c.stores[victim-1].Stats(); int(st.UnitsHeld) >= int(st.FragmentSize)/server.UnitSize(int(st.FragmentSize)) {
		t.Fatalf("server %d's earlier fragments fill %d units: the next one would not share their span", victim, st.UnitsHeld)
	}
	cuts[victim-1].armed.Store(true)
	if err := l.Sync(); err == nil {
		t.Fatal("Sync across a power cut reported success")
	}
	c.restart(t, cuts, victim)
	after := serverImages(t, c)
	for i := range before {
		for fid, want := range before[i] {
			if got, ok := after[i][fid]; !ok || !bytes.Equal(got, want) {
				t.Fatalf("server %d: fragment %v beside the cut is not byte-exact (present %v)", i+1, fid, ok)
			}
		}
	}
	l2 := checkReadable(t, c, cfg.ParityShards, addrs, blocks)
	defer l2.Close()
	for _, a := range addrs[:6] {
		if err := l2.VerifyStripe(l2.stripeOf(a.FID.Seq())); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShortStripePreallocReleased checks that reserving a stripe's slots
// up front (PreallocStripes) does not leak the reservations of members
// the stripe closes without: after a one-block Sync the servers hold
// the same slots either way, one data member plus m parity.
func TestShortStripePreallocReleased(t *testing.T) {
	held := func(prealloc bool) int {
		c := newTestCluster(t, 6)
		l, _ := c.open(t, Config{ParityShards: 2, PreallocStripes: prealloc})
		defer l.Close()
		mustAppend(t, l, 7, blockPattern(0, 100))
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		return slotsHeld(c)
	}
	on, off := held(true), held(false)
	if on != off || off != 1+2 {
		t.Fatalf("slots held with PreallocStripes %d, without %d, want %d", on, off, 1+2)
	}
}

// TestShortStripeDegradedRead reads a short stripe's only data member
// with its server down, where the member's neighbours in sequence order
// are the stripe's empty members: neither the sibling search nor the
// reconstruction may look for them on the servers.
func TestShortStripeDegradedRead(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{ParityShards: 2})
	defer l.Close()
	// Four full stripes, then one block: stripe 4 stores its data member
	// at index 0, its empty members at 1..3 and its parity at 4 and 5.
	for i := 0; i < 4*4; i++ {
		mustAppend(t, l, 7, blockPattern(i, l.MaxBlockSize()))
	}
	b := blockPattern(99, 100)
	addr := mustAppend(t, l, 7, b)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if s, idx := l.stripeOf(addr.FID.Seq()), addr.FID.Seq()%6; s != 4 || idx != 0 {
		t.Fatalf("block landed in stripe %d index %d, want stripe 4 index 0", s, idx)
	}
	c.flaky[serverOf(l, addr.FID)-1].SetDown(true)
	before := l.EngineStats()
	if got := mustRead(t, l, addr, len(b)); !bytes.Equal(got, b) {
		t.Fatal("reconstructed read mismatch")
	}
	after := l.EngineStats()
	if n := after.Broadcasts - before.Broadcasts; n != 0 {
		t.Fatalf("degraded read broadcast %d times", n)
	}
	if n := after.GatherMembers - before.GatherMembers; n != 2 {
		t.Fatalf("degraded read gathered %d members, want the 2 parity", n)
	}
}

// TestShortStripeConcurrentSyncs closes stripes short while other
// goroutines append — each writer Syncs every few blocks — with
// PreallocStripes on: every stripe verifies, every block reads back
// from a fresh log with a server down, and the servers hold no unit
// beyond those the stored members fill.
func TestShortStripeConcurrentSyncs(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{ParityShards: 2, PreallocStripes: true})
	const writers, perWriter = 4, 60
	addrs := make([][]BlockAddr, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				addr, err := l.AppendBlock(7, blockPattern(w*1000+i, 700), nil)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				addrs[w] = append(addrs[w], addr)
				if i%7 == 6 {
					if err := l.Sync(); err != nil {
						t.Errorf("sync: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	shorts := 0
	for _, s := range l.usage.Stripes() {
		if emptyOf(l, s) != 0 {
			shorts++
		}
		if err := l.VerifyStripe(s); err != nil {
			t.Fatalf("stripe %d: %v", s, err)
		}
	}
	if shorts == 0 {
		t.Fatal("no stripe closed short")
	}
	// Every fragment a server holds is a stored member (no reservation
	// outlived its stripe), and it holds only the units its bytes fill.
	stored := storedFIDs(c)
	fragments, units, memberUnits := 0, 0, 0
	for _, st := range c.stores {
		s := st.Stats()
		fragments += int(s.Fragments)
		units += int(s.UnitsHeld)
		unit := server.UnitSize(int(s.FragmentSize))
		for _, fid := range st.List(testClient) {
			size, _ := st.Has(fid)
			memberUnits += max(1, (int(size)+unit-1)/unit)
		}
	}
	if fragments != len(stored) {
		t.Fatalf("servers hold %d fragments for %d stored members", fragments, len(stored))
	}
	if units != memberUnits {
		t.Fatalf("servers hold %d units, their %d stored members fill %d", units, len(stored), memberUnits)
	}
	c.flaky[0].SetDown(true)
	l2, rec := c.open(t, Config{ParityShards: 2})
	defer l2.Close()
	if len(rec.Holes) != 0 {
		t.Fatalf("recovery reported holes %v", rec.Holes)
	}
	for w := range addrs {
		for i, addr := range addrs[w] {
			if got := mustRead(t, l2, addr, 700); !bytes.Equal(got, blockPattern(w*1000+i, 700)) {
				t.Fatalf("block %d of writer %d differs", i, w)
			}
		}
	}
	checkStripeRecords(t, l)
	checkStripeRecords(t, l2)
}

// TestRebuildKeepsStoredHeaders rebuilds each server of an RS(4,2)
// cluster in turn, on full and short stripes, and checks that every
// member rebuilt is stored with the header bytes it was sealed with:
// the last data member keeps its MemberLens. First each server is
// replaced by an empty one, so its data and parity members are
// reconstructed and compared with the headers it held. Then each server
// is down while the log writes, so its data members are degraded writes
// served from their held frames and its parity members are
// reconstructed; they are compared with the frames the log tried to
// store.
func TestRebuildKeepsStoredHeaders(t *testing.T) {
	for _, tc := range []struct {
		name  string
		syncs []int // fragment-sized blocks appended before each Sync
	}{
		{"full", []int{4, 4}},
		{"short", []int{2, 1, 3}},
	} {
		write := func(t *testing.T, l *Log) {
			t.Helper()
			for _, n := range tc.syncs {
				for i := 0; i < n; i++ {
					mustAppend(t, l, 7, blockPattern(i, l.MaxBlockSize()))
				}
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// seen counts the members checked: data, last data and parity.
		var seen [3]int
		check := func(t *testing.T, c *cluster, v int, want map[wire.FID][]byte) {
			t.Helper()
			for fid, w := range want {
				got, err := c.conns[v].Read(fid, 0, HeaderSize)
				if err != nil {
					t.Fatalf("server %d: rebuilt %v: %v", v+1, fid, err)
				}
				if !bytes.Equal(got, w) {
					g, _ := DecodeHeader(got)
					h, _ := DecodeHeader(w)
					t.Fatalf("server %d: %v rebuilt with header %+v, stored with %+v", v+1, fid, g, h)
				}
				h, _ := DecodeHeader(w)
				switch {
				case h.Kind == FragParity:
					seen[2]++
				case h.HasMemberLens():
					seen[1]++
				default:
					seen[0]++
				}
			}
		}
		t.Run(tc.name+"/replaced", func(t *testing.T) {
			seen = [3]int{}
			c := newTestCluster(t, 6)
			l, _ := c.open(t, Config{ParityShards: 2})
			write(t, l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			for v := range c.conns {
				want := map[wire.FID][]byte{}
				for _, fid := range c.stores[v].List(testClient) {
					h, err := c.conns[v].Read(fid, 0, HeaderSize)
					if err != nil {
						t.Fatal(err)
					}
					want[fid] = append([]byte(nil), h...)
				}
				c.replaceServer(t, v)
				l, _ := c.open(t, Config{ParityShards: 2})
				n, err := l.RebuildServer(wire.ServerID(v + 1))
				if err != nil {
					t.Fatalf("rebuild server %d: %v", v+1, err)
				}
				if n != len(want) {
					t.Fatalf("rebuilt %d members of server %d, it held %d", n, v+1, len(want))
				}
				check(t, c, v, want)
				checkStripeRecords(t, l)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 {
				t.Fatalf("checked %d data, %d last data and %d parity members: want each > 0", seen[0], seen[1], seen[2])
			}
		})
		t.Run(tc.name+"/degraded", func(t *testing.T) {
			seen = [3]int{}
			held := 0
			for v := 0; v < 6; v++ {
				c := newTestCluster(t, 6)
				recs := make([]*recordingConn, len(c.conns))
				conns := make([]transport.ServerConn, len(c.conns))
				for i, sc := range c.conns {
					recs[i] = &recordingConn{ServerConn: sc, frames: make(map[wire.FID][]byte)}
					conns[i] = recs[i]
				}
				l, _, err := Open(Config{Client: testClient, Servers: conns, FragmentSize: testFragSize, ParityShards: 2})
				if err != nil {
					t.Fatal(err)
				}
				c.flaky[v].SetDown(true)
				write(t, l)
				want := map[wire.FID][]byte{}
				recs[v].mu.Lock()
				for fid, frame := range recs[v].frames {
					want[fid] = frame[:HeaderSize]
				}
				recs[v].mu.Unlock()
				for fid := range want {
					if isHeld(l, fid) {
						held++
					}
				}
				c.flaky[v].SetDown(false)
				n, err := l.RebuildServer(wire.ServerID(v + 1))
				if err != nil {
					t.Fatalf("rebuild server %d: %v", v+1, err)
				}
				if n != len(want) {
					t.Fatalf("rebuilt %d members of server %d, %d were degraded", n, v+1, len(want))
				}
				check(t, c, v, want)
				checkStripeRecords(t, l)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if held == 0 || seen[0]+seen[1] != held || seen[1] == 0 || seen[2] == 0 {
				t.Fatalf("checked %d data (%d held), %d last data and %d parity members: want data all held, each > 0", seen[0], held, seen[1], seen[2])
			}
		})
	}
}
