package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"swarm/internal/wire"
)

// connWorkers bounds the per-connection worker pool: how many requests
// from one client connection may be in the store concurrently. With the
// client multiplexing RPCs over each connection, a slow disk op must not
// head-of-line-block the frames queued behind it. Sized to twice the
// client transport's per-connection in-flight bound (transport.MaxInFlight,
// 8) so a single connection's RPCs never wait for a worker and can keep
// the store's group-commit batches full: stores admitted concurrently
// share fsyncs (DESIGN.md §3.10), so worker depth directly sets the
// achievable commit batch size.
const connWorkers = 16

// TCPServer serves the wire protocol over TCP, one goroutine per
// connection plus a bounded worker pool per connection. Responses to one
// connection are serialized by a write lock; requests — from the same or
// different connections — proceed concurrently against the store.
type TCPServer struct {
	store *Store
	ln    net.Listener
	log   *log.Logger

	handleDelay atomic.Int64 // nanoseconds; bench/test hook

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu

	wg sync.WaitGroup
}

// ListenAndServe starts a TCP server for store on addr ("host:port";
// ":0" picks a free port). The returned server is already accepting.
func ListenAndServe(store *Store, addr string, logger *log.Logger) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return Serve(store, ln, logger), nil
}

// Serve starts a server for store on an existing listener (which the
// server takes ownership of). It lets tests and benchmarks interpose on
// the transport — e.g. wrap accepted connections with simulated RTT.
func Serve(store *Store, ln net.Listener, logger *log.Logger) *TCPServer {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &TCPServer{
		store: store,
		ln:    ln,
		log:   logger,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Store returns the underlying fragment store.
func (s *TCPServer) Store() *Store { return s.store }

// SetHandleDelay adds an artificial delay before each request is handled
// (0 disables). Benchmarks and tests use it to model slow disks.
func (s *TCPServer) SetHandleDelay(d time.Duration) { s.handleDelay.Store(int64(d)) }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connWriter serializes response frames onto one connection. Workers
// finish requests in completion order, not arrival order; the client
// demultiplexes by request ID.
type connWriter struct {
	c net.Conn
	// mu serializes response frames onto c; writing under it is the
	// mutex's entire purpose. swarmlint:io-mutex
	mu     sync.Mutex
	failed atomic.Bool
}

func (w *connWriter) write(status wire.Status, op wire.Op, id uint64, msg wire.Message, errText string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if status == wire.StatusOK {
		return wire.WriteResponse(w.c, op, id, msg)
	}
	return wire.WriteErrorResponse(w.c, op, id, status, errText)
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := wire.NewConnReader(conn)
	cw := &connWriter{c: conn}
	jobs := make(chan *wire.Request, connWorkers)
	var workers sync.WaitGroup
	for i := 0; i < connWorkers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for req := range jobs {
				s.handleRequest(conn, cw, req)
			}
		}()
	}
	for {
		req, err := wire.ReadRequestFrame(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				s.log.Printf("read request: %v", err)
			}
			break
		}
		jobs <- req
		if cw.failed.Load() {
			break
		}
	}
	close(jobs)
	workers.Wait()
}

func (s *TCPServer) handleRequest(conn net.Conn, cw *connWriter, req *wire.Request) {
	if d := time.Duration(s.handleDelay.Load()); d > 0 {
		time.Sleep(d)
	}
	status, msg := s.store.Handle(req.Client, req.Op, req.Body)
	werr := cw.write(status, req.Op, req.ID, msg, ErrText(msg))
	// The request body (and for store ops the fragment payload aliasing
	// it) is dead once Handle returned; a ReadResponse payload is dead
	// once the response frame is on the wire. Recycle the exclusively
	// owned pooled buffers; a reference-counted payload (a read-cache
	// extent spliced zero-copy into the frame) instead has its reference
	// released — the cache may still be serving it to other readers.
	wire.PutBuffer(req.Body)
	if status == wire.StatusOK {
		switch m := msg.(type) {
		case wire.PayloadReleaser:
			m.ReleasePayload()
		case wire.PayloadMessage:
			wire.PutBuffer(m.Payload())
		}
	}
	if werr != nil && !cw.failed.Swap(true) {
		s.log.Printf("write response: %v", werr)
		conn.Close() // unblocks the connection's frame reader
	}
}

// Close stops accepting, closes all connections, and waits for the
// connection handlers to finish.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
