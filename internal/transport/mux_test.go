package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarm/internal/disk"
	"swarm/internal/server"
	"swarm/internal/wire"
)

// TestMuxDemuxOutOfOrder drives the multiplexer against a raw server that
// deliberately answers in reverse arrival order: four concurrent RPCs on
// ONE connection, each response routed back to its caller by request ID.
// The old checkout-a-connection transport could not even send the second
// request before the first response.
func TestMuxDemuxOutOfOrder(t *testing.T) {
	const nreq = 4
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			c, err := ln.Accept()
			if err != nil {
				return err
			}
			defer c.Close()
			r := wire.NewConnReader(c)
			reqs := make([]*wire.Request, 0, nreq)
			for len(reqs) < nreq {
				req, err := wire.ReadRequestFrame(r)
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
			}
			for i := len(reqs) - 1; i >= 0; i-- {
				req := reqs[i]
				var rr wire.ReadRequest
				if err := rr.Decode(wire.NewDecoder(req.Body)); err != nil {
					return err
				}
				// The response payload encodes the request's Len, so a
				// misrouted response is detectable by content, not just size.
				data := bytes.Repeat([]byte{byte(rr.Len)}, int(rr.Len))
				if err := wire.WriteResponse(c, req.Op, req.ID, &wire.ReadResponse{Data: data}); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	sc, err := DialTCPOpts(1, ln.Addr().String(), 1, TCPOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	fid := wire.MakeFID(1, 0)
	var wg sync.WaitGroup
	errs := make(chan error, nreq)
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(n uint32) {
			defer wg.Done()
			data, err := sc.Read(fid, 0, n)
			if err != nil {
				errs <- fmt.Errorf("read %d: %w", n, err)
				return
			}
			if uint32(len(data)) != n {
				errs <- fmt.Errorf("read %d: got %d bytes", n, len(data))
				return
			}
			for _, b := range data {
				if b != byte(n) {
					errs <- fmt.Errorf("read %d: got a response routed to the wrong request (byte %d)", n, b)
					return
				}
			}
		}(uint32(10 + i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestMuxChaosConcurrentRPCs is the demux layer's -race stress: 64
// concurrent RPC workers over a 2-connection pool, wrapped in Flaky with
// injected latency and a 5% failure rate. Every injected failure is
// retried by the caller (the resilient layer's job in production); at the
// end every fragment must read back intact.
func TestMuxChaosConcurrentRPCs(t *testing.T) {
	const (
		workers  = 64
		fragSize = testFragSize
	)
	st, err := server.Format(disk.NewMemDisk(4<<20), server.Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.ListenAndServe(st, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc, err := DialTCPOpts(1, srv.Addr(), 1, TCPOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFlaky(sc)
	defer fl.Close()
	fl.SetLatency(500 * time.Microsecond)
	fl.SetFailureRate(0.05, 42)

	// retry drives an op through injected failures; a real client has the
	// resilient layer doing exactly this.
	retry := func(op func() error) error {
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			if err = op(); err == nil || !errors.Is(err, ErrUnavailable) {
				return err
			}
		}
		return err
	}

	payload := func(i int) []byte {
		b := bytes.Repeat([]byte{byte(i)}, 1000)
		b[0] = byte(i >> 8)
		return b
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fid := wire.MakeFID(1, uint64(i))
			err := retry(func() error {
				err := fl.Store(fid, payload(i), false, nil)
				// The transport's transparent retry can double-send a
				// store that already committed; that is success.
				if wire.IsStatus(err, wire.StatusExists) {
					return nil
				}
				return err
			})
			if err != nil {
				errs <- fmt.Errorf("store %d: %w", i, err)
				return
			}
			var got []byte
			err = retry(func() error {
				var rerr error
				got, rerr = fl.Read(fid, 0, 1000)
				return rerr
			})
			if err != nil {
				errs <- fmt.Errorf("read %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, payload(i)) {
				errs <- fmt.Errorf("fragment %d corrupted through the mux", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDecodeIntoRecyclesBodyOnDecodeError is the regression test for a
// pool leak: when a PayloadMessage response arrived with a malformed
// body, decodeInto skipped the recycle (the success path would have
// handed the body to the caller) and the pooled frame body leaked.
func TestDecodeIntoRecyclesBodyOnDecodeError(t *testing.T) {
	const bodyLen = 5000 // a pooled size class (bins start at 4 KB)
	body := wire.GetBuffer(bodyLen)
	// Malformed ReadResponse: the length prefix promises more bytes than
	// the frame holds, so Decode fails partway.
	binary.LittleEndian.PutUint32(body, uint32(bodyLen)*2)

	m := &muxConn{}
	frame := &wire.Response{Op: wire.OpRead, ID: 1, Status: wire.StatusOK, Body: body}
	var rsp wire.ReadResponse
	if err := m.decodeInto(frame, &rsp); err == nil {
		t.Fatal("decode of a malformed body succeeded")
	}

	// Bins are stacks: if decodeInto recycled the body, the next
	// GetBuffer of that class returns the same backing array.
	got := wire.GetBuffer(bodyLen)
	defer wire.PutBuffer(got)
	if &got[0] != &body[0] {
		t.Fatal("decode-error path leaked the pooled frame body")
	}
}

// holdConn delays the return of the Write that completes a request frame
// until the connection has been closed, forcing the interleaving in
// which the reader routes the RPC's response and then sees the server's
// close, all before roundTrip's write has returned.
type holdConn struct {
	net.Conn
	frameLen int
	written  int
	once     sync.Once
	closed   chan struct{}
}

func (c *holdConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += n
	if c.written >= c.frameLen {
		<-c.closed
	}
	return n, err
}

func (c *holdConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestRoundTripResponseRoutedBeforeWriteReturns: a server that answers
// and then hangs up may do both before the client's request write
// returns. The response is already in the RPC's channel, so the RPC
// must succeed; touching the closed connection after the write (as
// clearing its write deadline did) reported it as failed.
func TestRoundTripResponseRoutedBeforeWriteReturns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			c, err := ln.Accept()
			if err != nil {
				return err
			}
			defer c.Close()
			req, err := wire.ReadRequestFrame(wire.NewConnReader(c))
			if err != nil {
				return err
			}
			return wire.WriteResponse(c, req.Op, req.ID, &wire.ReadResponse{Data: []byte("ok")})
		}()
	}()

	req := &wire.ReadRequest{FID: wire.MakeFID(1, 0), Len: 2}
	var frame bytes.Buffer
	if err := wire.WriteRequest(&frame, wire.OpRead, 1, 1, req); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hc := &holdConn{Conn: c, frameLen: frame.Len(), closed: make(chan struct{})}
	m := &muxConn{c: hc, sem: make(chan struct{}, MaxInFlight), pending: make(map[uint64]chan *wire.Response)}
	go m.readLoop()
	defer m.fail(ErrUnavailable)

	var rsp wire.ReadResponse
	if err := m.roundTrip(time.Second, wire.OpRead, 1, 1, req, &rsp); err != nil {
		t.Fatalf("answered RPC reported as failed: %v", err)
	}
	if string(rsp.Data) != "ok" {
		t.Fatalf("response = %q, want %q", rsp.Data, "ok")
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestTCPStoreAllocs bounds what one store RPC allocates end to end over
// loopback TCP (client encode, server decode and commit, response
// handling) once the buffer pools are warm: under half the payload per
// RPC, so no stage copies the fragment into a fresh buffer.
func TestTCPStoreAllocs(t *testing.T) {
	const (
		stores    = 48
		payloadKB = 64
		workers   = 16
	)
	fragSize := payloadKB << 10
	st, err := server.Format(disk.NewMemDisk(int64(2*stores+16)*int64(fragSize)+(8<<20)), server.Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.ListenAndServe(st, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc, err := DialTCPOpts(1, srv.Addr(), 1, TCPOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	payload := bytes.Repeat([]byte{0x5A}, fragSize)

	// storeAll stores FIDs base..base+stores-1 from workers goroutines.
	storeAll := func(base uint64) {
		var next atomic.Uint64
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < stores; i = next.Add(1) - 1 {
					if err := sc.Store(wire.MakeFID(1, base+i), payload, false, nil); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	storeAll(0) // warm the connections and buffer pools
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	storeAll(stores)
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / stores / 1024
	t.Logf("%.1f KB allocated per %d KB store RPC", kb, payloadKB)
	if kb > payloadKB/2 {
		t.Fatalf("%.0f KB allocated per %d KB store RPC: a stage copies the fragment", kb, payloadKB)
	}
}
