package fragio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarm/internal/transport"
	"swarm/internal/wire"
)

// testFormat is a toy frame: an 8-byte header holding the payload length
// and a byte-sum checksum.
type testFormat struct{}

func (testFormat) HeaderSize() uint32 { return 8 }

func (testFormat) Parse(fid wire.FID, hdr []byte) (any, uint32, error) {
	if len(hdr) != 8 {
		return nil, 0, fmt.Errorf("short header: %d", len(hdr))
	}
	n := binary.LittleEndian.Uint32(hdr)
	sum := binary.LittleEndian.Uint32(hdr[4:])
	return sum, n, nil
}

func (testFormat) Verify(decoded any, payload []byte) error {
	var sum uint32
	for _, b := range payload {
		sum += uint32(b)
	}
	if sum != decoded.(uint32) {
		return errors.New("checksum mismatch")
	}
	return nil
}

func frame(payload []byte) []byte {
	var sum uint32
	for _, b := range payload {
		sum += uint32(b)
	}
	f := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(f, uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:], sum)
	copy(f[8:], payload)
	return f
}

// fakeConn is an in-memory ServerConn with injectable latency and
// failures.
type fakeConn struct {
	id wire.ServerID

	mu      sync.Mutex
	frags   map[wire.FID][]byte
	latency time.Duration

	storeErrs  []error // shifted per Store call; nil entry = real store
	storeCalls atomic.Int64
	readCalls  atomic.Int64
	hasCalls   atomic.Int64
}

func newFakeConn(id wire.ServerID) *fakeConn {
	return &fakeConn{id: id, frags: make(map[wire.FID][]byte)}
}

func (c *fakeConn) put(fid wire.FID, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frags[fid] = frame(payload)
}

func (c *fakeConn) setLatency(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latency = d
}

func (c *fakeConn) sleep() {
	c.mu.Lock()
	d := c.latency
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

func (c *fakeConn) ID() wire.ServerID { return c.id }

func (c *fakeConn) Store(fid wire.FID, data []byte, mark bool, ranges []wire.ACLRange) error {
	c.storeCalls.Add(1)
	c.sleep()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.storeErrs) > 0 {
		err := c.storeErrs[0]
		c.storeErrs = c.storeErrs[1:]
		if err != nil {
			return err
		}
	}
	c.frags[fid] = append([]byte(nil), data...)
	return nil
}

func (c *fakeConn) Read(fid wire.FID, off, n uint32) ([]byte, error) {
	c.readCalls.Add(1)
	c.sleep()
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.frags[fid]
	if !ok {
		return nil, &wire.StatusError{Status: wire.StatusNotFound}
	}
	if int(off+n) > len(f) {
		return nil, &wire.StatusError{Status: wire.StatusBadRequest}
	}
	return append([]byte(nil), f[off:off+n]...), nil
}

func (c *fakeConn) Delete(fid wire.FID) error   { return nil }
func (c *fakeConn) Prealloc(fid wire.FID) error { return nil }
func (c *fakeConn) LastMarked(client wire.ClientID) (wire.FID, bool, error) {
	return 0, false, nil
}

func (c *fakeConn) Has(fid wire.FID) (uint32, bool, error) {
	c.hasCalls.Add(1)
	c.sleep()
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.frags[fid]
	return uint32(len(f)), ok, nil
}

func (c *fakeConn) List(client wire.ClientID) ([]wire.FID, error) { return nil, nil }
func (c *fakeConn) ACLCreate(members []wire.ClientID) (wire.AID, error) {
	return 0, errors.New("unsupported")
}
func (c *fakeConn) ACLModify(aid wire.AID, add, remove []wire.ClientID) error { return nil }
func (c *fakeConn) ACLDelete(aid wire.AID) error                              { return nil }
func (c *fakeConn) Stat() (wire.StatResponse, error)                          { return wire.StatResponse{}, nil }
func (c *fakeConn) Ping() error                                               { return nil }
func (c *fakeConn) Close() error                                              { return nil }

// retryingConn makes a fakeConn report a resilience layer by implementing
// transport.HealthReporter.
type retryingConn struct{ *fakeConn }

func (retryingConn) Health() transport.Health { return transport.Health{} }

func newEngine(conns ...transport.ServerConn) *Engine {
	return New(conns, Options{Format: testFormat{}})
}

func fid(seq uint64) wire.FID { return wire.MakeFID(1, seq) }

func TestFetchValidates(t *testing.T) {
	c := newFakeConn(1)
	payload := []byte("hello fragment")
	c.put(fid(7), payload)
	e := newEngine(c)
	_, got, err := e.Fetch(c, fid(7))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
	// Corrupt the stored payload: Fetch must refuse it.
	c.mu.Lock()
	c.frags[fid(7)][9]++
	c.mu.Unlock()
	if _, _, err := e.Fetch(c, fid(7)); err == nil {
		t.Fatal("fetch of corrupted fragment succeeded")
	}
}

func TestGatherParallel(t *testing.T) {
	const lat = 30 * time.Millisecond
	var conns []transport.ServerConn
	var members []Member
	for i := 0; i < 4; i++ {
		c := newFakeConn(wire.ServerID(i + 1))
		c.put(fid(uint64(i)), []byte{byte(i)})
		c.setLatency(lat)
		conns = append(conns, c)
		members = append(members, Member{FID: fid(uint64(i)), Server: c.ID()})
	}
	e := newEngine(conns...)
	start := time.Now()
	results := e.GatherK(members, len(members))
	elapsed := time.Since(start)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i, r.Err)
		}
		if r.From != members[i].Server {
			t.Errorf("member %d served by %d, want %d", i, r.From, members[i].Server)
		}
	}
	// Each member costs two latency-injected reads (header + payload).
	// Serial would be 4 members x 2 reads x 30ms = 240ms; the fan-out
	// should land near one member's cost. Allow generous slack.
	if serial := 8 * lat; elapsed >= serial/2 {
		t.Fatalf("gather took %v, want well under serial %v", elapsed, serial)
	}
}

func TestGatherBroadcastFallback(t *testing.T) {
	holder := newFakeConn(1)
	other := newFakeConn(2)
	holder.put(fid(3), []byte("misplaced"))
	e := newEngine(holder, other)
	// Wrong server hint: the engine must fall back to broadcast.
	res := e.GatherK([]Member{{FID: fid(3), Server: 2}}, 1)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].From != 1 {
		t.Fatalf("served by %d, want 1", res[0].From)
	}
	if st := e.Stats(); st.Broadcasts != 1 {
		t.Fatalf("broadcasts = %d, want 1", st.Broadcasts)
	}
}

func TestSingleDedupes(t *testing.T) {
	e := newEngine(newFakeConn(1))
	var runs atomic.Int64
	release := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = e.Single(fid(9), func() (any, error) {
				runs.Add(1)
				<-release
				return "result", nil
			})
		}(i)
	}
	// Let every caller reach the flight before it lands.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("function ran %d times, want 1", got)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil || vals[i] != "result" {
			t.Fatalf("caller %d: val=%v err=%v", i, vals[i], errs[i])
		}
	}
	if st := e.Stats(); st.SharedFlights != callers-1 {
		t.Fatalf("shared flights = %d, want %d", st.SharedFlights, callers-1)
	}
}

func TestLocateDedupes(t *testing.T) {
	c := newFakeConn(1)
	c.put(fid(5), []byte("x"))
	c.setLatency(20 * time.Millisecond)
	e := newEngine(c)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := e.Locate(fid(5)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := c.hasCalls.Load(); got != 1 {
		t.Fatalf("broadcast probes = %d, want 1 (singleflight)", got)
	}
}

func TestLocateNotFound(t *testing.T) {
	e := newEngine(newFakeConn(1))
	if _, _, err := e.Locate(fid(99)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestStoreDoesNotStackRetries(t *testing.T) {
	// Re-sending belongs to the resilient transport alone: the engine
	// makes exactly one attempt and surfaces the error as-is, whether or
	// not the conn reports a resilience layer of its own.
	for _, name := range []string{"bare", "health-reporting"} {
		c := newFakeConn(1)
		c.storeErrs = []error{transport.ErrUnavailable, transport.ErrUnavailable}
		var sc transport.ServerConn = c
		if name == "health-reporting" {
			sc = retryingConn{c}
		}
		e := newEngine(sc)
		if err := e.Store(sc, fid(1), frame(nil), false, nil); !errors.Is(err, transport.ErrUnavailable) {
			t.Fatalf("%s: err = %v, want ErrUnavailable", name, err)
		}
		if got := c.storeCalls.Load(); got != 1 {
			t.Fatalf("%s: store attempts = %d, want 1 (no engine retry)", name, got)
		}
		if st := e.Stats(); st.StoreRetries != 0 {
			t.Fatalf("%s: StoreRetries = %d, want 0", name, st.StoreRetries)
		}
	}
}

func TestStoreNoRetryOnAuthoritativeError(t *testing.T) {
	c := newFakeConn(1)
	c.storeErrs = []error{&wire.StatusError{Status: wire.StatusNoSpace}}
	e := newEngine(c)
	if err := e.Store(c, fid(1), frame(nil), false, nil); !wire.IsStatus(err, wire.StatusNoSpace) {
		t.Fatalf("err = %v, want no-space", err)
	}
	if got := c.storeCalls.Load(); got != 1 {
		t.Fatalf("store attempts = %d, want 1 (status errors are final)", got)
	}
}

func TestStoreExistsIsSuccess(t *testing.T) {
	c := newFakeConn(1)
	c.storeErrs = []error{&wire.StatusError{Status: wire.StatusExists}}
	e := newEngine(c)
	// Exists (a resilient-layer retry after a lost response): the
	// fragment committed.
	if err := e.Store(c, fid(1), frame(nil), false, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAsyncFlowControlAndWait(t *testing.T) {
	c := newFakeConn(1)
	c.setLatency(10 * time.Millisecond)
	e := New([]transport.ServerConn{c}, Options{Format: testFormat{}, StoreDepth: 1})
	var done atomic.Int64
	for i := 0; i < 3; i++ {
		e.StoreAsync(c, fid(uint64(i)), frame([]byte{byte(i)}), false, nil, func(err error) {
			if err != nil {
				t.Error(err)
			}
			done.Add(1)
		})
	}
	e.Wait()
	if got := done.Load(); got != 3 {
		t.Fatalf("done callbacks = %d, want 3", got)
	}
	if got := c.storeCalls.Load(); got != 3 {
		t.Fatalf("stores = %d, want 3", got)
	}
}

// pooledConn overrides fakeConn.Read to return pool-owned buffers, the
// real transport's contract (ReadResponse payloads alias pooled frame
// bodies).
type pooledConn struct{ *fakeConn }

func (c pooledConn) Read(fid wire.FID, off, n uint32) ([]byte, error) {
	b, err := c.fakeConn.Read(fid, off, n)
	if err != nil {
		return nil, err
	}
	out := wire.GetBuffer(len(b))
	copy(out, b)
	return out, nil
}

// TestFetchRecyclesPayloadOnVerifyFailure is the regression test for a
// pool leak: Fetch obtained the payload from the transport (pool-owned)
// and returned the verify error without releasing it, so every corrupt
// fragment cost the pool a fragment-sized buffer.
func TestFetchRecyclesPayloadOnVerifyFailure(t *testing.T) {
	const payloadLen = 5000 // a pooled size class (bins start at 4 KB)
	inner := newFakeConn(1)
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	fid := wire.MakeFID(1, 1)
	inner.put(fid, payload)
	// Corrupt one payload byte after framing so Parse succeeds (header
	// intact) but Verify fails.
	inner.mu.Lock()
	inner.frags[fid][8] ^= 0xff
	inner.mu.Unlock()

	conn := pooledConn{inner}
	e := New([]transport.ServerConn{conn}, Options{Format: testFormat{}})

	// Seed the pool with a marker buffer. Bins are stacks, so the fetch
	// path's GetBuffer(payloadLen) draws the marker; if the verify
	// failure recycles it, the next GetBuffer returns the same array.
	marker := wire.GetBuffer(payloadLen)
	wire.PutBuffer(marker)

	if _, _, err := e.Fetch(conn, fid); err == nil {
		t.Fatal("Fetch of a corrupt fragment succeeded")
	}

	got := wire.GetBuffer(payloadLen)
	defer wire.PutBuffer(got)
	if &got[0] != &marker[0] {
		t.Fatal("verify-failure path leaked the pooled payload buffer")
	}
}

// TestGatherKStopsAtQuorum proves GatherK returns as soon as k members
// answer, without waiting for slow stragglers, and marks the members it
// did not wait for with ErrSkipped.
func TestGatherKStopsAtQuorum(t *testing.T) {
	const slow = 300 * time.Millisecond
	var conns []transport.ServerConn
	var members []Member
	for i := 0; i < 4; i++ {
		c := newFakeConn(wire.ServerID(i + 1))
		c.put(fid(uint64(i)), []byte{byte(i + 1)})
		if i >= 2 {
			c.setLatency(slow)
		}
		conns = append(conns, c)
		members = append(members, Member{FID: fid(uint64(i)), Server: c.ID()})
	}
	e := newEngine(conns...)
	start := time.Now()
	results := e.GatherK(members, 2)
	elapsed := time.Since(start)
	if elapsed >= slow {
		t.Fatalf("GatherK waited %v; quorum of fast members should beat the %v stragglers", elapsed, slow)
	}
	if len(results) != len(members) {
		t.Fatalf("got %d results, want %d", len(results), len(members))
	}
	var ok, skipped int
	for i, r := range results {
		switch {
		case r.Err == nil:
			ok++
			if len(r.Payload) != 1 || r.Payload[0] != byte(i+1) {
				t.Fatalf("member %d payload %v", i, r.Payload)
			}
		case errors.Is(r.Err, ErrSkipped):
			skipped++
		default:
			t.Fatalf("member %d: %v", i, r.Err)
		}
	}
	if ok != 2 || skipped != 2 {
		t.Fatalf("ok=%d skipped=%d, want 2/2", ok, skipped)
	}
	st := e.Stats()
	if st.KGathers != 1 {
		t.Fatalf("KGathers = %d, want 1", st.KGathers)
	}
	if st.GatherStragglers != 2 {
		t.Fatalf("GatherStragglers = %d, want 2", st.GatherStragglers)
	}
}

// TestGatherKToleratesFailures: with one member missing its fragment,
// GatherK keeps collecting until k successes arrive. The lost member
// ends up with either its own fetch error or ErrSkipped (its broadcast
// fallback may still be in flight when the quorum fills) — never a
// payload.
func TestGatherKToleratesFailures(t *testing.T) {
	var conns []transport.ServerConn
	var members []Member
	for i := 0; i < 4; i++ {
		c := newFakeConn(wire.ServerID(i + 1))
		if i != 0 { // member 0's fragment is lost
			c.put(fid(uint64(i)), []byte{byte(i + 1)})
		}
		conns = append(conns, c)
		members = append(members, Member{FID: fid(uint64(i)), Server: c.ID()})
	}
	e := newEngine(conns...)
	results := e.GatherK(members, 3)
	var ok int
	for _, r := range results {
		if r.Err == nil {
			ok++
		}
	}
	if ok != 3 {
		t.Fatalf("ok=%d, want 3", ok)
	}
	if results[0].Err == nil {
		t.Fatal("lost member returned a payload")
	}
}

// TestGatherKFullWidthDelegates: asking for k >= len(members) waits for
// every member (no ErrSkipped) and is not counted as a quorum gather.
func TestGatherKFullWidthDelegates(t *testing.T) {
	var conns []transport.ServerConn
	var members []Member
	for i := 0; i < 3; i++ {
		c := newFakeConn(wire.ServerID(i + 1))
		c.put(fid(uint64(i)), []byte{byte(i + 1)})
		conns = append(conns, c)
		members = append(members, Member{FID: fid(uint64(i)), Server: c.ID()})
	}
	e := newEngine(conns...)
	for _, r := range e.GatherK(members, 3) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := e.Stats(); st.KGathers != 0 {
		t.Fatalf("KGathers = %d, want 0 for full-width gather", st.KGathers)
	}
}
