package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"swarm/internal/erasure"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// Tests of the one-copy write path: a fragment's pool buffer is the
// frame that ships, parity accumulates into pooled frames, and each
// frame returns to the pool exactly once, after its store is acked and
// nothing reads it any more (DESIGN.md §3.3).

// recordingConn copies every Store frame when the store is called, holds
// the ack back for delay, and checks that the frame did not change while
// the store was in flight: a buffer reused before its ack shows up as a
// changed frame here, or as a recorded frame that does not match the
// appended entries.
type recordingConn struct {
	transport.ServerConn
	delay time.Duration

	mu      sync.Mutex
	frames  map[wire.FID][]byte
	changed []wire.FID
}

func (c *recordingConn) Store(fid wire.FID, data []byte, mark bool, ranges []wire.ACLRange) error {
	cp := append([]byte(nil), data...)
	c.mu.Lock()
	c.frames[fid] = cp
	c.mu.Unlock()
	time.Sleep(c.delay)
	if !bytes.Equal(cp, data) {
		c.mu.Lock()
		c.changed = append(c.changed, fid)
		c.mu.Unlock()
	}
	return c.ServerConn.Store(fid, data, mark, ranges)
}

// entryModel is one entry as the test appended it. A checkpoint's body
// is encoded by the log (it carries the usage table), so the model keeps
// its service payload and address and takes the body from the frame.
type entryModel struct {
	kind    EntryKind
	svc     ServiceID
	payload []byte
	ckpt    bool
	addr    BlockAddr
}

// logModel rebuilds every data member's payload from the entries
// appended to it, independently of the log's buffers.
type logModel struct {
	entries map[wire.FID][]entryModel
	next    map[wire.FID]uint32 // expected offset of the next entry
}

func (m *logModel) add(t *testing.T, addr BlockAddr, es ...entryModel) {
	t.Helper()
	if m.next[addr.FID] != addr.Off {
		t.Fatalf("entry of %v at offset %d, want %d", addr.FID, addr.Off, m.next[addr.FID])
	}
	for _, e := range es {
		m.entries[addr.FID] = append(m.entries[addr.FID], e)
		if !e.ckpt {
			m.next[addr.FID] += uint32(EntrySize(len(e.payload)))
		}
	}
}

// payload rebuilds fid's payload. A checkpoint entry's body is read from
// the recorded frame after checking that it decodes to what was written.
func (m *logModel) payload(t *testing.T, fid wire.FID, frame []byte) []byte {
	t.Helper()
	var out []byte
	for _, e := range m.entries[fid] {
		body := e.payload
		if e.ckpt {
			off := len(out)
			n := int(binary.LittleEndian.Uint32(frame[HeaderSize+off+3:]))
			body = frame[HeaderSize+off+EntryHdrSize : HeaderSize+off+EntryHdrSize+n]
			rec, err := DecodeCheckpointRecord(body)
			if err != nil {
				t.Fatalf("checkpoint in %v: %v", fid, err)
			}
			if !bytes.Equal(rec.Payload, e.payload) || rec.Directory[e.svc] != e.addr {
				t.Fatalf("checkpoint in %v does not carry what was written", fid)
			}
		}
		buf := make([]byte, EntrySize(len(body)))
		AppendEntry(buf, 0, e.kind, e.svc, body)
		out = append(out, buf...)
	}
	return out
}

func TestFramesByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name          string
		width, parity int
	}{
		{"xor", 4, 1},
		{"rs42", 6, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, tc.width)
			recs := make([]*recordingConn, tc.width)
			conns := make([]transport.ServerConn, tc.width)
			for i, sc := range c.conns {
				recs[i] = &recordingConn{ServerConn: sc, delay: 200 * time.Microsecond, frames: make(map[wire.FID][]byte)}
				conns[i] = recs[i]
			}
			l, _, err := Open(Config{Client: testClient, Servers: conns, FragmentSize: testFragSize,
				Width: tc.width, ParityShards: tc.parity, PipelineDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			m := &logModel{entries: make(map[wire.FID][]entryModel), next: make(map[wire.FID]uint32)}
			rng := rand.New(rand.NewSource(int64(tc.width)))
			type block struct {
				addr BlockAddr
				data []byte
			}
			var blocks []block
			syncs, ckpts := 0, 0
			for i := 0; i < 400; i++ {
				switch r := rng.Intn(100); {
				case r < 70:
					data := make([]byte, 1+rng.Intn(1500))
					rng.Read(data)
					hint := []byte(fmt.Sprintf("h%d", i))
					addr, err := l.AppendBlock(7, data, hint)
					if err != nil {
						t.Fatal(err)
					}
					rec := EncodeCreateRecord(&CreateRecord{Addr: addr, Len: uint32(len(data)), Hint: hint})
					m.add(t, addr, entryModel{kind: EntryBlock, svc: 7, payload: data},
						entryModel{kind: EntryCreate, svc: 7, payload: rec})
					blocks = append(blocks, block{addr, data})
				case r < 88:
					rec := make([]byte, rng.Intn(300))
					rng.Read(rec)
					addr, err := l.AppendRecord(8, rec)
					if err != nil {
						t.Fatal(err)
					}
					m.add(t, addr, entryModel{kind: EntryRecord, svc: 8, payload: rec})
				case r < 96:
					if err := l.Sync(); err != nil {
						t.Fatal(err)
					}
					syncs++
				default:
					payload := []byte(fmt.Sprintf("state %d", i))
					addr, err := l.WriteCheckpoint(9, payload)
					if err != nil {
						t.Fatal(err)
					}
					m.add(t, addr, entryModel{kind: EntryCheckpoint, svc: 9, payload: payload, ckpt: true, addr: addr})
					ckpts++
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if syncs == 0 || ckpts == 0 {
				t.Fatalf("seed drove %d syncs and %d checkpoints; want both", syncs, ckpts)
			}

			frames := make(map[wire.FID][]byte)
			for _, rc := range recs {
				if len(rc.changed) > 0 {
					t.Fatalf("frames of %v changed while their stores were in flight", rc.changed)
				}
				for fid, f := range rc.frames {
					frames[fid] = f
				}
			}
			// Data members: header ‖ the payload rebuilt from the entries.
			expect := make(map[wire.FID][]byte)
			for fid := range m.entries {
				frame, ok := frames[fid]
				if !ok {
					t.Fatalf("data member %v never stored", fid)
				}
				want := m.payload(t, fid, frame)
				expect[fid] = want
				h, err := DecodeHeader(frame)
				if err != nil {
					t.Fatalf("%v: %v", fid, err)
				}
				if h.Kind != FragData || h.FID != fid || int(h.DataLen) != len(want) || h.PayloadCRC != crc32.ChecksumIEEE(want) {
					t.Fatalf("%v: header %+v does not describe the %d appended bytes", fid, h, len(want))
				}
				if !bytes.Equal(frame, append(EncodeHeader(&h), want...)) {
					t.Fatalf("%v: frame differs from EncodeHeader ‖ payload", fid)
				}
			}
			// Parity members: header ‖ the parity of the rebuilt payloads.
			full, short, nparity := 0, 0, 0
			for fid, frame := range frames {
				h, err := DecodeHeader(frame)
				if err != nil {
					t.Fatalf("%v: %v", fid, err)
				}
				if h.Kind != FragParity {
					if _, ok := m.entries[fid]; !ok {
						t.Fatalf("stored data member %v holds no appended entry", fid)
					}
					continue
				}
				nparity++
				code, err := h.ErasureCode()
				if err != nil {
					t.Fatal(err)
				}
				j, _ := h.ParityOrdinal(int(h.Index))
				maxLen, filled := 0, 0
				for i := 0; i < int(h.Width); i++ {
					if _, isPar := h.ParityOrdinal(i); isPar {
						continue
					}
					n := len(expect[h.MemberFID(i)])
					if int(h.MemberLens[i]) != n {
						t.Fatalf("%v: MemberLens[%d] = %d, appended %d", fid, i, h.MemberLens[i], n)
					}
					maxLen = max(maxLen, n)
					if n > 0 {
						filled++
					}
				}
				par := make([][]byte, code.ParityShards())
				for k := range par {
					par[k] = make([]byte, maxLen)
				}
				for i := 0; i < int(h.Width); i++ {
					if _, isPar := h.ParityOrdinal(i); !isPar {
						code.AddData(h.ShardOrdinal(i), expect[h.MemberFID(i)], par)
					}
				}
				if !bytes.Equal(frame, append(EncodeHeader(&h), par[j]...)) {
					t.Fatalf("%v: parity frame differs from EncodeHeader ‖ parity of the appended members", fid)
				}
				if filled == code.DataShards() {
					full++
				} else {
					short++
				}
			}
			if full == 0 || short == 0 {
				t.Fatalf("checked %d full and %d short stripes' parity; want both", full, short)
			}
			if want := int(l.Stats().ParityFragments); nparity != want {
				t.Fatalf("recorded %d parity frames, log sealed %d", nparity, want)
			}
			// Every block reads back from the servers after the pool has
			// recycled its frame.
			for _, b := range blocks {
				if got := mustRead(t, l, b.addr, len(b.data)); !bytes.Equal(got, b.data) {
					t.Fatalf("block %v reads back wrong", b.addr)
				}
			}
		})
	}
}

// gateConn parks every Store until open is closed, so the members it
// holds stay un-acked while the test reads them.
type gateConn struct {
	transport.ServerConn
	open chan struct{}
}

func (c *gateConn) Store(fid wire.FID, data []byte, mark bool, ranges []wire.ACLRange) error {
	<-c.open
	return c.ServerConn.Store(fid, data, mark, ranges)
}

// releaseCounter counts the log's frame releases per fragment, read
// from the header each frame carries.
type releaseCounter struct {
	mu sync.Mutex
	n  map[wire.FID]int
}

func (rc *releaseCounter) release(frame []byte) {
	if frame == nil {
		return
	}
	h, err := DecodeHeader(frame)
	rc.mu.Lock()
	if err != nil {
		rc.n[0]++ // a frame released without its header: counted as a failure
	} else {
		rc.n[h.FID]++
	}
	rc.mu.Unlock()
	wire.PutBuffer(frame)
}

func (rc *releaseCounter) count(fid wire.FID) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.n[fid]
}

func TestFrameLifetimeDegraded(t *testing.T) {
	c := newTestCluster(t, 6)
	gate := &gateConn{ServerConn: c.conns[0], open: make(chan struct{})}
	conns := append([]transport.ServerConn{gate}, c.conns[1:]...)
	l, _, err := Open(Config{Client: testClient, Servers: conns, FragmentSize: testFragSize,
		ParityShards: 2, PipelineDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	rc := &releaseCounter{n: make(map[wire.FID]int)}
	l.releaseFrame = rc.release

	type block struct {
		addr BlockAddr
		data []byte
	}
	var blocks []block
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			data := blockPattern(len(blocks), 300+len(blocks)%700)
			blocks = append(blocks, block{mustAppend(t, l, 7, data), data})
		}
	}
	// checkAll reads every block through Log.Read and through its
	// member's FetchFragment.
	checkAll := func(stage string) {
		t.Helper()
		for _, b := range blocks {
			if got := mustRead(t, l, b.addr, len(b.data)); !bytes.Equal(got, b.data) {
				t.Fatalf("%s: Read %v wrong", stage, b.addr)
			}
			_, payload, err := l.FetchFragment(b.addr.FID)
			if err != nil {
				t.Fatalf("%s: FetchFragment %v: %v", stage, b.addr.FID, err)
			}
			got, err := sliceBlock(payload, b.addr, 0, uint32(len(b.data)))
			if err != nil || !bytes.Equal(got, b.data) {
				t.Fatalf("%s: FetchFragment %v serves the block at %d wrong (%v)", stage, b.addr.FID, b.addr.Off, err)
			}
		}
	}

	// Server 1's stores park at the gate (un-acked); server 4 goes
	// unreachable mid-stream while appends keep sealing.
	appendN(40)
	c.flaky[3].SetDown(true)
	appendN(80)
	// Store failures are noted as their stores finish, asynchronously.
	for deadline := time.Now().Add(5 * time.Second); len(l.DegradedFIDs()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no degraded writes while server 4 was down")
		}
		time.Sleep(time.Millisecond)
	}
	checkAll("gated and degraded")
	close(gate.open)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	checkAll("after acks")

	// Acked members went back to the pool; degraded ones are held.
	// (A degraded parity member's frame went back at once: parity is
	// rebuilt from the data members, never read from a held frame.)
	degraded := l.DegradedFIDs()
	heldData := 0
	for _, fid := range degraded {
		if _, isPar := l.parityOrdinal(l.stripeOf(fid.Seq()), int(fid.Seq()%uint64(l.width))); isPar {
			continue
		}
		heldData++
		if n := rc.count(fid); n != 0 {
			t.Fatalf("degraded %v released %d times while its payload is the only copy", fid, n)
		}
	}
	if heldData == 0 {
		t.Fatal("no degraded data member to hold")
	}
	// Reclaim the first degraded stripe (its delete on the down server
	// is deferred), then rebuild the rest onto the revived server.
	reclaimed := l.stripeOf(degraded[0].Seq())
	if err := l.ReclaimStripe(reclaimed); err != nil {
		t.Fatal(err)
	}
	c.flaky[3].SetDown(false)
	if _, err := l.RebuildServer(4); err != nil {
		t.Fatal(err)
	}
	if left := l.DegradedFIDs(); len(left) != 0 {
		t.Fatalf("still degraded after rebuild: %v", left)
	}
	var kept []block
	for _, b := range blocks {
		if l.stripeOf(b.addr.FID.Seq()) != reclaimed {
			kept = append(kept, b)
		}
	}
	blocks = kept
	checkAll("after rebuild")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st := l.Stats()
	sealed := int(st.FragmentsSealed + st.ParityFragments)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.n[0] != 0 {
		t.Fatalf("%d frames released without a valid header", rc.n[0])
	}
	if len(rc.n) != sealed {
		t.Fatalf("%d fragments released, %d sealed", len(rc.n), sealed)
	}
	for fid, n := range rc.n {
		if n != 1 {
			t.Fatalf("%v released %d times", fid, n)
		}
	}
	held := heldFrames(l)
	if held != 0 {
		t.Fatalf("%d frames still held after rebuild and reclaim", held)
	}
	checkStripeRecords(t, l)
}

// discardConn acks every store without keeping it: the allocation pin
// below measures the log, not a server.
type discardConn struct {
	transport.ServerConn
	id       wire.ServerID
	fragSize int
}

func (c *discardConn) ID() wire.ServerID { return c.id }
func (c *discardConn) Stat() (wire.StatResponse, error) {
	return wire.StatResponse{FragmentSize: uint32(c.fragSize)}, nil
}
func (c *discardConn) List(wire.ClientID) ([]wire.FID, error) { return nil, nil }
func (c *discardConn) Store(wire.FID, []byte, bool, []wire.ACLRange) error {
	return nil
}

func TestAppendAllocsPerSealedFragment(t *testing.T) {
	const fragSize = 1 << 20
	conns := make([]transport.ServerConn, 6)
	for i := range conns {
		conns[i] = &discardConn{id: wire.ServerID(i + 1), fragSize: fragSize}
	}
	l, _, err := Open(Config{Client: testClient, Servers: conns, FragmentSize: fragSize,
		ParityShards: 2, Codec: erasure.KindRS})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	block := blockPattern(3, 64<<10)
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := l.AppendBlock(7, block, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// The pool keeps what is released to it. Stock it past the most
	// frames the log holds at once — the open fragment, m parity frames,
	// PipelineDepth (2) stores per server and a stripe's sealed frames
	// waiting for a slot, 18 here — so the measurement does not depend on
	// how the warm-up's stores happened to overlap; then warm up.
	stock := make([][]byte, 32)
	for i := range stock {
		stock[i] = wire.GetBuffer(fragSize)
	}
	for _, b := range stock {
		wire.PutBuffer(b)
	}
	run(200)

	before := l.Stats()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run(150) // ~10 data fragments: 2 full stripes and a short one
	runtime.ReadMemStats(&m1)
	after := l.Stats()

	sealed := after.FragmentsSealed - before.FragmentsSealed
	parity := after.ParityFragments - before.ParityFragments
	if sealed < 8 || parity < 2*2 {
		t.Fatalf("measured %d data and %d parity seals; want ≥ 8 and ≥ 2 stripe closes", sealed, parity)
	}
	perFrag := int64(m1.TotalAlloc-m0.TotalAlloc) / (sealed + parity)
	t.Logf("%d bytes allocated per sealed fragment (%d data + %d parity)", perFrag, sealed, parity)
	if perFrag >= 64<<10 {
		t.Fatalf("appending allocates %d bytes per sealed fragment, want < 64 KB: a fragment buffer is being allocated or copied", perFrag)
	}
}
