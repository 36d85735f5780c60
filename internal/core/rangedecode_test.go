package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarm/internal/transport"
	"swarm/internal/wire"
)

// A degraded read decodes only the bytes it needs: the same payload
// range of k survivors, each clamped to its own length. These tests hold
// that range decode to the whole-fragment reconstruction, byte for
// byte, across codecs, short stripes, double losses and lost parity,
// and under concurrent readers while a second server fails and the
// cleaner reclaims the stripe.

// writeRangeLog appends blocks of random sizes and Syncs at random
// points, so stripes close short — with empty data members, and with a
// short last data member whose end falls inside other members' blocks.
func writeRangeLog(t *testing.T, l *Log, rng *rand.Rand, n int) ([]BlockAddr, [][]byte) {
	t.Helper()
	var addrs []BlockAddr
	var blocks [][]byte
	for i := 0; i < n; i++ {
		b := make([]byte, 100+rng.Intn(1400))
		rng.Read(b)
		addrs = append(addrs, mustAppend(t, l, 7, b))
		blocks = append(blocks, b)
		if rng.Intn(10) == 0 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return addrs, blocks
}

// downAt takes the servers holding the given fragments away.
func downAt(c *cluster, l *Log, fids ...wire.FID) {
	for _, fid := range fids {
		c.flaky[serverOf(l, fid)-1].SetDown(true)
	}
}

// isDown reports whether fid's server is down.
func isDown(c *cluster, l *Log, fid wire.FID) bool {
	return c.flaky[serverOf(l, fid)-1].Down()
}

// rangeStats tallies what checkRangeDecodes exercised.
type rangeStats struct {
	blocks  int // blocks of lost fragments checked
	crossed int // ranges that straddled a shorter survivor's end
	empties int // stripes checked that have an empty member
}

// checkRangeDecodes range decodes every block whose fragment's server
// is down — over the whole block, its first and last byte, and across
// the end of every shorter survivor inside it — and compares each with
// the same bytes of the whole-fragment reconstruction and of the block
// written. Every block is also read through Log.Read.
func checkRangeDecodes(t *testing.T, c *cluster, l *Log, addrs []BlockAddr, blocks [][]byte) rangeStats {
	t.Helper()
	var st rangeStats
	wholes := map[wire.FID][]byte{}
	seenStripe := map[uint64]bool{}
	for bi, addr := range addrs {
		fid := addr.FID
		if !isDown(c, l, fid) {
			continue
		}
		g, err := l.stripeGeometry(fid)
		if err != nil {
			t.Fatalf("block %d: geometry: %v", bi, err)
		}
		if !g.HasMemberLens() {
			t.Fatalf("block %d: stripe %d geometry lacks MemberLens", bi, g.StripeID)
		}
		if !seenStripe[g.StripeID] {
			seenStripe[g.StripeID] = true
			if mask, _ := g.EmptyMembers(); mask != 0 {
				st.empties++
			}
		}
		whole, ok := wholes[fid]
		if !ok {
			_, whole, err = l.reconstructFragment(fid)
			if err != nil {
				t.Fatalf("block %d: whole reconstruction: %v", bi, err)
			}
			wholes[fid] = whole
		}
		missIdx := int(fid.Seq() - g.BaseSeq())
		s := addr.Off + EntryHdrSize
		e := s + uint32(len(blocks[bi]))
		if !bytes.Equal(whole[s:e], blocks[bi]) {
			t.Fatalf("block %d: whole-fragment reconstruction differs from the block written", bi)
		}
		ranges := [][2]uint32{{s, e}, {s, s + 1}, {e - 1, e}}
		for i := 0; i < int(g.Width); i++ {
			if n := g.MemberLen(i); i != missIdx && n > s && n < e {
				ranges = append(ranges, [2]uint32{n - 1, n + 1}, [2]uint32{s, e})
				st.crossed++
			}
		}
		for _, r := range ranges {
			got, err := l.decode(g, missIdx, r[0], r[1])
			if err != nil {
				t.Fatalf("block %d: range [%d,%d): %v", bi, r[0], r[1], err)
			}
			if !bytes.Equal(got, whole[r[0]:r[1]]) {
				t.Fatalf("block %d: range [%d,%d) differs from the whole-fragment reconstruction", bi, r[0], r[1])
			}
		}
		if got := mustRead(t, l, addr, len(blocks[bi])); !bytes.Equal(got, blocks[bi]) {
			t.Fatalf("block %d: Log.Read differs from the block written", bi)
		}
		st.blocks++
	}
	return st
}

func TestRangeDecodeMatchesWhole(t *testing.T) {
	for _, tc := range []struct {
		name    string
		servers int
		parity  int
	}{
		{"xor", 4, 1},
		{"rs42", 6, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, tc.servers)
			l, _ := c.open(t, Config{ParityShards: tc.parity})
			defer l.Close()
			addrs, blocks := writeRangeLog(t, l, rand.New(rand.NewSource(int64(tc.servers))), 300)
			// Down the server of a block in a short stripe, so the lost
			// member's stripe has empty members or a short survivor.
			downAt(c, l, addrs[len(addrs)-1].FID)
			st := checkRangeDecodes(t, c, l, addrs, blocks)
			if st.blocks == 0 || st.crossed == 0 || st.empties == 0 {
				t.Fatalf("checked %d blocks, %d ranges across a survivor's end, %d stripes with empty members: want all > 0", st.blocks, st.crossed, st.empties)
			}
			if l.Stats().RangeReconstructions == 0 {
				t.Fatal("Log.Read made no range reconstruction")
			}
		})
	}
}

// TestRangeDecodeTwoLost loses two members of every stripe under
// RS(4,2): each range decode needs all four survivors.
func TestRangeDecodeTwoLost(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{ParityShards: 2})
	defer l.Close()
	addrs, blocks := writeRangeLog(t, l, rand.New(rand.NewSource(3)), 300)
	c.flaky[1].SetDown(true)
	c.flaky[4].SetDown(true)
	if st := checkRangeDecodes(t, c, l, addrs, blocks); st.blocks == 0 {
		t.Fatal("no block was on a downed server")
	}
}

// TestRangeDecodeParityNeighbour loses a parity member together with its
// data neighbour in sequence order, for each of RS(4,2)'s two parity
// slots, with the log's geometry entries forgotten: the sibling search
// meets the dead parity member first, and MemberLens must come from the
// other parity member's header.
func TestRangeDecodeParityNeighbour(t *testing.T) {
	for j := 0; j < 2; j++ {
		c := newTestCluster(t, 6)
		l, _ := c.open(t, Config{ParityShards: 2})
		addrs, blocks := writeRangeLog(t, l, rand.New(rand.NewSource(int64(10+j))), 200)
		// Stripe s keeps its parity at slots s and s+1 (mod 6). Parity
		// slot s has parity on its right, so its data neighbour is on
		// its left; parity slot s+1 has one on its right. Take the first
		// stripe whose neighbour member holds blocks.
		var lost []BlockAddr
		var lostBlocks [][]byte
		var parityFID wire.FID
		for i, a := range addrs {
			s := l.stripeOf(a.FID.Seq())
			p := int(s+uint64(j)) % 6
			d := (p + 5) % 6
			if j == 1 {
				d = (p + 1) % 6
			}
			if len(lost) > 0 && a.FID != lost[0].FID {
				break
			}
			if a.FID.Seq() == s*6+uint64(d) {
				lost = append(lost, a)
				lostBlocks = append(lostBlocks, blocks[i])
				parityFID = wire.MakeFID(testClient, s*6+uint64(p))
			}
		}
		if len(lost) == 0 {
			t.Fatalf("parity %d: no stripe with blocks beside it", j)
		}
		downAt(c, l, parityFID, lost[0].FID)
		forgetGeometries(l)
		if st := checkRangeDecodes(t, c, l, lost, lostBlocks); st.blocks != len(lost) {
			t.Fatalf("parity %d: checked %d of %d blocks", j, st.blocks, len(lost))
		}
		l.Close()
	}
}

// TestRangeDecodeRentThenBuy reads a lost fragment's blocks through
// Log.Read, last to first so no read continues a scan, until its range
// decodes have decoded as many bytes as the fragment holds: from then on
// the whole fragment is reconstructed once and cached, and its blocks
// cost no more RPCs. Before that, a range decode costs only its range
// reads — the geometry entry spares the sibling search and the header
// reads.
func TestRangeDecodeRentThenBuy(t *testing.T) {
	c := newTestCluster(t, 6)
	var headers atomic.Int64
	for i := range c.conns {
		c.conns[i] = &headerCounter{ServerConn: c.conns[i], n: &headers}
	}
	l, _ := c.open(t, Config{ParityShards: 2})
	defer l.Close()
	var addrs []BlockAddr
	var blocks [][]byte
	for i := 0; i < 40; i++ {
		b := blockPattern(i, 500)
		addrs = append(addrs, mustAppend(t, l, 7, b))
		blocks = append(blocks, b)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fid := addrs[0].FID
	downAt(c, l, fid)
	var own []int
	for i, a := range addrs {
		if a.FID == fid {
			own = append(own, i)
		}
	}
	mustRead(t, l, addrs[own[0]], len(blocks[own[0]])) // learns the geometry
	g, _ := geometryOf(l, l.stripeOf(fid.Seq()))
	missIdx := int(fid.Seq() % 6)
	fragLen := g.MemberLen(missIdx)

	var rented uint32 = 500
	for pass := 0; ; pass++ {
		for j := len(own) - 1; j >= 1; j-- {
			i := own[j]
			// The survivors that reach into the block are read; k = 4 of
			// them are decoded and the rest are hedges.
			a := addrs[i].Off + EntryHdrSize
			members := int64(0)
			for x := 0; x < 6; x++ {
				if x != missIdx && g.MemberLen(x) > a {
					members++
				}
			}
			before, stats, hdrs := l.EngineStats(), l.Stats(), headers.Load()
			if got := mustRead(t, l, addrs[i], len(blocks[i])); !bytes.Equal(got, blocks[i]) {
				t.Fatalf("block %d differs", i)
			}
			after, stats2 := l.EngineStats(), l.Stats()
			rented += 500
			switch {
			case rented < fragLen:
				if stats2.RangeReconstructions != stats.RangeReconstructions+1 {
					t.Fatalf("read at %d of %d rented bytes was not a range decode", rented, fragLen)
				}
				// One gather of range reads and one failed direct read;
				// no header read, no broadcast, no whole fetch.
				if n := after.GatherMembers - before.GatherMembers; n != members || after.Gathers != before.Gathers+1 {
					t.Fatalf("range decode gathered %d members in %d gathers, want %d in 1", n, after.Gathers-before.Gathers, members)
				}
				if n := headers.Load() - hdrs; n != 0 {
					t.Fatalf("range decode read %d headers", n)
				}
				if after.Broadcasts != before.Broadcasts || after.Fetches != before.Fetches {
					t.Fatal("range decode broadcast or fetched a whole member")
				}
			case rented-500 < fragLen:
				if stats2.Reconstructions != stats.Reconstructions+1 || stats2.RangeReconstructions != stats.RangeReconstructions {
					t.Fatalf("read reaching %d of %d rented bytes did not buy the whole fragment", rented, fragLen)
				}
			default:
				// (A hedge from an earlier gather may still land and
				// count its read, so only this read's own work is
				// compared.)
				if after.Gathers != before.Gathers || after.Broadcasts != before.Broadcasts || stats2.Reconstructions != stats.Reconstructions {
					t.Fatal("read of a bought fragment reached the servers")
				}
			}
		}
		if rented >= fragLen+1000 {
			break
		}
	}
}

// TestRangeDecodeScanBuys reads a lost fragment's blocks in order: the
// first is a range decode, the second continues a scan and buys the
// whole fragment, and the cache serves the rest.
func TestRangeDecodeScanBuys(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{ParityShards: 2})
	defer l.Close()
	var addrs []BlockAddr
	var blocks [][]byte
	for i := 0; i < 40; i++ {
		b := blockPattern(i, 500)
		addrs = append(addrs, mustAppend(t, l, 7, b))
		blocks = append(blocks, b)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fid := addrs[0].FID
	downAt(c, l, fid)
	n := 0
	for i, a := range addrs {
		if a.FID != fid {
			continue
		}
		if got := mustRead(t, l, a, len(blocks[i])); !bytes.Equal(got, blocks[i]) {
			t.Fatalf("block %d differs", i)
		}
		n++
	}
	if n < 3 {
		t.Fatalf("lost fragment holds %d blocks, want at least 3", n)
	}
	if st := l.Stats(); st.RangeReconstructions != 1 || st.Reconstructions != 2 {
		t.Fatalf("scan of %d blocks: %d reconstructions, %d of them ranges; want 2 and 1", n, st.Reconstructions, st.RangeReconstructions)
	}
}

// TestRangeDecodeConcurrentChaos runs readers of distinct blocks of one
// lost fragment while a second server fails and the stripe is
// reclaimed under them. Every read returns the block's bytes or a
// classified ErrLost.
func TestRangeDecodeConcurrentChaos(t *testing.T) {
	c := newTestCluster(t, 6)
	l, _ := c.open(t, Config{ParityShards: 2})
	defer l.Close()
	addrs, blocks := writeRangeLog(t, l, rand.New(rand.NewSource(5)), 200)
	fid := addrs[0].FID
	stripe := l.stripeOf(fid.Seq())
	var own []int
	for i, a := range addrs {
		if a.FID == fid {
			own = append(own, i)
		}
	}
	if len(own) < 4 {
		t.Fatalf("fragment holds %d blocks, want several", len(own))
	}
	downAt(c, l, fid)

	const readers = 8
	var ok, lost atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				i := own[(r+iter*readers)%len(own)]
				got, err := l.Read(addrs[i], 0, uint32(len(blocks[i])))
				switch {
				case err == nil && bytes.Equal(got, blocks[i]):
					ok.Add(1)
				case errors.Is(err, ErrLost):
					lost.Add(1)
				case err == nil:
					t.Errorf("block %d: wrong bytes", i)
					return
				default:
					t.Errorf("block %d: unclassified error %v", i, err)
					return
				}
			}
		}(r)
	}
	waitFor := func(n int64) {
		for deadline := time.Now().Add(5 * time.Second); ok.Load() < n && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	// Other lost fragments would evict this one from the fragment
	// cache: drop it now and then, so reads keep renting and buying.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
				l.recon.drop(fid)
			}
		}
	}()
	waitFor(50)
	// A second member of the stripe fails: decodes still have k.
	for i := uint64(1); i < 6; i++ {
		second := wire.MakeFID(testClient, stripe*6+(fid.Seq()+i)%6)
		if serverOf(l, second) != 0 {
			downAt(c, l, second)
			break
		}
	}
	waitFor(ok.Load() + 50)
	// The cleaner reclaims the stripe under the readers.
	if err := l.ReclaimStripe(stripe); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); lost.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if ok.Load() < 100 || lost.Load() == 0 {
		t.Fatalf("%d correct reads, %d ErrLost: want ≥ 100 and some after the reclaim", ok.Load(), lost.Load())
	}
	if l.Stats().RangeReconstructions == 0 {
		t.Fatal("no range decode ran")
	}
}

// headerCounter counts the header reads made through it.
type headerCounter struct {
	transport.ServerConn
	n *atomic.Int64
}

func (c *headerCounter) Read(fid wire.FID, off, n uint32) ([]byte, error) {
	if off == 0 && n == HeaderSize {
		c.n.Add(1)
	}
	return c.ServerConn.Read(fid, off, n)
}

// trackedCap is the capacity of the buffers bufTracker hands out: a
// size class nothing else in this package's tests draws from the pool.
const trackedCap = 64 << 10

// bufTracker records the buffers trackConn hands out, to prove each
// comes back to the transport's pool.
type bufTracker struct {
	mu  sync.Mutex
	on  bool
	out map[*byte]bool
}

// trackConn hands out every read's bytes in a tracked pool-sized buffer.
type trackConn struct {
	transport.ServerConn
	tr *bufTracker
}

func (c *trackConn) Read(fid wire.FID, off, n uint32) ([]byte, error) {
	data, err := c.ServerConn.Read(fid, off, n)
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	if err != nil || !c.tr.on || len(data) == 0 {
		return data, err
	}
	b := make([]byte, len(data), trackedCap)
	copy(b, data)
	c.tr.out[&b[:1][0]] = true
	return b, nil
}

// awaitReleased drains the pool's bin for trackedCap until every
// tracked buffer has been seen in it. Stragglers are recycled by the
// gather's drainer after the read returns, hence the wait.
func (tr *bufTracker) awaitReleased(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		left := 0
		for i := 0; i < 80; i++ {
			p := wire.GetBuffer(trackedCap)
			tr.mu.Lock()
			delete(tr.out, &p[:1][0])
			left = len(tr.out)
			tr.mu.Unlock()
			if left == 0 {
				break
			}
		}
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers were never returned", left)
		}
	}
}

// TestRangeDecodeReleasesBuffers checks that a degraded read returns
// every pooled buffer it was handed — the range reads it decoded, the
// hedge it abandoned, the headers of its geometry search, and the whole
// members of the reconstruction it eventually buys.
func TestRangeDecodeReleasesBuffers(t *testing.T) {
	c := newTestCluster(t, 6)
	tr := &bufTracker{out: map[*byte]bool{}}
	for i := range c.conns {
		c.conns[i] = &trackConn{ServerConn: c.conns[i], tr: tr}
	}
	l, _ := c.open(t, Config{ParityShards: 2})
	defer l.Close()
	addrs, blocks := writeRangeLog(t, l, rand.New(rand.NewSource(6)), 120)
	downAt(c, l, addrs[0].FID)
	forgetGeometries(l)
	tr.mu.Lock()
	tr.on = true
	tr.mu.Unlock()
	reads := 0
	for pass := 0; pass < 3; pass++ {
		for i, a := range addrs {
			if !isDown(c, l, a.FID) {
				continue
			}
			if got := mustRead(t, l, a, len(blocks[i])); !bytes.Equal(got, blocks[i]) {
				t.Fatalf("block %d differs", i)
			}
			tr.awaitReleased(t)
			reads++
		}
	}
	if s := l.Stats(); reads == 0 || s.RangeReconstructions == 0 || s.Reconstructions == s.RangeReconstructions {
		t.Fatalf("%d reads, stats %+v: want both range decodes and whole reconstructions", reads, s)
	}
}
