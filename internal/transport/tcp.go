package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"swarm/internal/wire"
)

// DefaultPoolSize is how many TCP connections a client keeps per server.
// Two matches the log layer's pipeline depth: one fragment can be in
// flight on the network while the server writes the previous one to disk.
const DefaultPoolSize = 2

// MaxInFlight is how many RPCs may ride one pooled connection
// concurrently. Requests are tagged with IDs and responses demultiplexed
// by ID, so a connection is a shared pipe, not a checked-out resource;
// this bounds the pipe's depth. The fragment I/O engine's own per-server
// semaphores (store pipeline depth, fetch depth) are the workload-level
// throttles — this bound only needs to be at least their sum to never be
// the bottleneck.
const MaxInFlight = 8

// DefaultIOTimeout bounds each RPC (request write plus response wait) on
// a pooled connection, and the dial itself. Without a deadline a hung
// server — as opposed to a dead one, whose RST fails fast — would stall
// the caller forever and with it every stripe that includes the server.
// Override per connection with SetIOTimeout.
const DefaultIOTimeout = 15 * time.Second

// TCPOptions tunes a TCP ServerConn. The zero value selects defaults.
type TCPOptions struct {
	// PoolSize is the number of TCP connections kept to the server
	// (default DefaultPoolSize).
	PoolSize int
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.PoolSize <= 0 {
		o.PoolSize = DefaultPoolSize
	}
	return o
}

// tcpRPC multiplexes RPCs over a small pool of TCP connections. Each
// connection has a reader goroutine demultiplexing response frames by
// request ID, so up to PoolSize × MaxInFlight RPCs proceed in parallel.
type tcpRPC struct {
	addr      string
	client    wire.ClientID
	opts      TCPOptions
	nextID    atomic.Uint64
	ioTimeout atomic.Int64 // nanoseconds; 0 disables deadlines

	mu     sync.Mutex
	closed bool // guarded by mu
	next   int  // round-robin cursor over slots; guarded by mu
	slots  []connSlot
}

// connSlot is one position in the connection pool. The muxConn it holds
// is replaced (by dialing) when the previous one breaks.
type connSlot struct {
	dialMu sync.Mutex // serializes dialing this slot
	mc     atomic.Pointer[muxConn]
}

// muxConn is one multiplexed TCP connection: a write mutex serializes
// request frames, a reader goroutine routes response frames to the
// pending map by ID, and a semaphore bounds in-flight RPCs.
type muxConn struct {
	c   net.Conn
	sem chan struct{}
	// wmu serializes request frames onto c; writing under it is the
	// mutex's entire purpose. swarmlint:io-mutex
	wmu sync.Mutex

	pmu     sync.Mutex
	pending map[uint64]chan *wire.Response // guarded by pmu
	dead    bool                           // guarded by pmu
	deadErr error                          // guarded by pmu
}

// TCPConn is a ServerConn over the wire protocol.
type TCPConn struct {
	conn
	rpc *tcpRPC
}

var _ ServerConn = (*TCPConn)(nil)

// DialTCPOpts connects to a storage server at addr as the given client.
// The first connection is dialed eagerly so configuration errors surface
// at setup time; the rest are created on demand.
func DialTCPOpts(id wire.ServerID, addr string, client wire.ClientID, opts TCPOptions) (*TCPConn, error) {
	c := NewTCPConnOpts(id, addr, client, opts)
	mc, err := c.rpc.dial()
	if err != nil {
		return nil, err
	}
	c.rpc.slots[0].mc.Store(mc)
	return c, nil
}

// NewTCPConnOpts returns a TCP ServerConn whose pooled connections are
// all dialed on demand, without requiring the server to be reachable now.
// This is how a client connects to a degraded cluster: operations fail
// with ErrUnavailable until the server answers, then the pool dials and
// the connection heals. DialTCPOpts's eager first dial is preferable
// when configuration errors should surface at setup time.
func NewTCPConnOpts(id wire.ServerID, addr string, client wire.ClientID, opts TCPOptions) *TCPConn {
	opts = opts.withDefaults()
	r := &tcpRPC{addr: addr, client: client, opts: opts, slots: make([]connSlot, opts.PoolSize)}
	r.ioTimeout.Store(int64(DefaultIOTimeout))
	return &TCPConn{conn: conn{id: id, r: r}, rpc: r}
}

// SetIOTimeout changes the per-RPC I/O deadline (0 disables it). Safe to
// call concurrently with in-flight operations; they pick up the new
// value on their next exchange.
func (c *TCPConn) SetIOTimeout(d time.Duration) { c.rpc.ioTimeout.Store(int64(d)) }

func (t *tcpRPC) dial() (*muxConn, error) {
	c, err := net.DialTimeout("tcp", t.addr, time.Duration(t.ioTimeout.Load()))
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, t.addr, err)
	}
	m := &muxConn{
		c:       c,
		sem:     make(chan struct{}, MaxInFlight),
		pending: make(map[uint64]chan *wire.Response),
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, ErrUnavailable
	}
	t.mu.Unlock()
	// readLoop terminates on the first read error, and conn close (via
	// Close or a dead-conn retirement) makes every subsequent read fail.
	// swarmlint:goroleak-ok — exits when the connection closes
	go m.readLoop()
	return m, nil
}

// pick returns a live multiplexed connection, dialing a replacement into
// a round-robin slot when none is available.
func (t *tcpRPC) pick() (*muxConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrUnavailable
	}
	n := len(t.slots)
	idx := t.next
	t.next = (t.next + 1) % n
	for i := 0; i < n; i++ {
		if mc := t.slots[(idx+i)%n].mc.Load(); mc != nil && !mc.broken() {
			t.mu.Unlock()
			return mc, nil
		}
	}
	t.mu.Unlock()

	// No live connection: dial into the chosen slot. The per-slot mutex
	// collapses a thundering herd into one dial; latecomers reuse it.
	slot := &t.slots[idx]
	slot.dialMu.Lock()
	defer slot.dialMu.Unlock()
	if mc := slot.mc.Load(); mc != nil && !mc.broken() {
		return mc, nil
	}
	mc, err := t.dial()
	if err != nil {
		return nil, err
	}
	// Publish under t.mu so a concurrent Close either sees the slot (and
	// fails it) or we see closed here — never a leaked live connection.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		mc.fail(ErrUnavailable)
		return nil, ErrUnavailable
	}
	slot.mc.Store(mc)
	t.mu.Unlock()
	return mc, nil
}

// call makes exactly one exchange. A transport-level failure is returned
// as ErrUnavailable and breaks the pooled connection, so the next call
// dials a fresh one (a stale connection to a restarted server heals that
// way). Re-sending is Resilient's decision alone: a second attempt here
// would multiply its retries, hide failures from its breaker, and repeat
// a non-idempotent request whose response was lost.
func (t *tcpRPC) call(op wire.Op, req wire.Message, rsp wire.Message) error {
	mc, err := t.pick()
	if err != nil {
		return err
	}
	err = mc.roundTrip(time.Duration(t.ioTimeout.Load()), op, t.nextID.Add(1), t.client, req, rsp)
	var se *wire.StatusError
	if err == nil || errors.As(err, &se) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// roundTrip sends one request frame and waits for its response. Any
// transport-level failure (write error, timeout, reader death) breaks
// the whole connection: frame boundaries can no longer be trusted, and
// every RPC sharing the connection fails over to a fresh dial.
func (m *muxConn) roundTrip(d time.Duration, op wire.Op, id uint64, client wire.ClientID, req, rsp wire.Message) error {
	m.sem <- struct{}{} // in-flight slot
	defer func() { <-m.sem }()

	ch := make(chan *wire.Response, 1)
	m.pmu.Lock()
	if m.dead {
		err := m.deadErr
		m.pmu.Unlock()
		return err
	}
	m.pending[id] = ch
	m.pmu.Unlock()

	// Each write sets its own deadline (none when d is 0) before it
	// starts, and nothing touches the connection after it: by the time
	// the write returns, the reader may already have routed this RPC's
	// response and seen the server close the connection, and a failed
	// call on the closed connection would report an answered RPC as
	// failed.
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	m.wmu.Lock()
	_ = m.c.SetWriteDeadline(deadline) // fails only on a closed connection, which fails the write too
	err := wire.WriteRequest(m.c, op, id, client, req)
	m.wmu.Unlock()
	if err != nil {
		m.fail(err)
		return err
	}

	var timeout <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case frame := <-ch:
		return m.decodeInto(frame, rsp)
	case <-timeout:
		err := fmt.Errorf("transport: rpc %d timed out after %v: %w", id, d, ErrUnavailable)
		m.fail(err)
		// The reader may have delivered concurrently with the timeout;
		// honor the response if so.
		select {
		case frame := <-ch:
			return m.decodeInto(frame, rsp)
		default:
			return err
		}
	}
}

// decodeInto finishes an RPC from its response frame. The frame body is
// pool-owned: it is recycled here unless the decoded message aliases it
// (PayloadMessage responses hand the body's payload to the caller).
func (m *muxConn) decodeInto(frame *wire.Response, rsp wire.Message) error {
	if frame == nil { // channel closed: connection died
		m.pmu.Lock()
		err := m.deadErr
		m.pmu.Unlock()
		if err == nil {
			err = ErrUnavailable
		}
		return err
	}
	if err := frame.Err(); err != nil {
		wire.PutBuffer(frame.Body)
		return err
	}
	err := rsp.Decode(wire.NewDecoder(frame.Body))
	// A PayloadMessage that decoded successfully aliases the body, so the
	// caller now owns it; on decode failure nothing aliases anything and
	// the body must be recycled either way.
	if _, aliases := rsp.(wire.PayloadMessage); !aliases || err != nil {
		wire.PutBuffer(frame.Body)
	}
	return err
}

// readLoop is the connection's demultiplexer: it routes each response
// frame to the RPC that sent the matching request ID. It exits when the
// connection errors (including being closed by fail or Close).
func (m *muxConn) readLoop() {
	r := wire.NewConnReader(m.c)
	for {
		frame, err := wire.ReadResponseFrame(r)
		if err != nil {
			m.fail(fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		m.pmu.Lock()
		ch, ok := m.pending[frame.ID]
		if ok {
			delete(m.pending, frame.ID)
		}
		m.pmu.Unlock()
		if !ok {
			// A caller that timed out and gave up, or protocol noise
			// either way nobody owns the body anymore.
			wire.PutBuffer(frame.Body)
			continue
		}
		ch <- frame // buffered; never blocks
	}
}

func (m *muxConn) broken() bool {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	return m.dead
}

// fail marks the connection dead, closes it, and wakes every pending RPC
// with a closed channel (read as nil → deadErr).
func (m *muxConn) fail(err error) {
	m.pmu.Lock()
	if m.dead {
		m.pmu.Unlock()
		return
	}
	m.dead = true
	m.deadErr = err
	pend := m.pending
	m.pending = nil
	m.pmu.Unlock()
	m.c.Close()
	for _, ch := range pend {
		close(ch)
	}
}

// close closes all pooled connections. In-flight RPCs fail promptly with
// ErrUnavailable.
func (t *tcpRPC) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	for i := range t.slots {
		if mc := t.slots[i].mc.Load(); mc != nil {
			mc.fail(ErrUnavailable)
		}
	}
	return nil
}
