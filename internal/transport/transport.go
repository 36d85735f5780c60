// Package transport connects the client-side log layer to storage servers.
// It defines the ServerConn abstraction over one internal seam, rpc: a
// single call(op, req, rsp) that encodes a request, exchanges it with a
// server, and decodes the reply. Two rpcs reach a server — Local
// (in-process calls into a server.Store through the full request codec)
// and TCP (the wire protocol over the network) — and three decorate
// another rpc: Resilient (retries, backoff and the circuit breaker; the
// only code that re-sends a request), Throttled (the 1999 performance
// model) and Flaky (failure injection for tests). The typed ServerConn
// methods are written once, over the seam. Broadcast implements the
// self-hosting fragment discovery the paper uses for reconstruction
// (§2.3.3).
package transport

import (
	"errors"
	"sync"

	"swarm/internal/wire"
)

// ErrUnavailable indicates the server cannot be reached; the log layer
// treats it as a server failure and falls back to reconstruction.
var ErrUnavailable = errors.New("transport: server unavailable")

// ServerConn is one client's connection to one storage server. All methods
// are safe for concurrent use. Errors originating from the server are
// *wire.StatusError values, so callers can match with wire.IsStatus
// regardless of the transport in use.
type ServerConn interface {
	// ID returns the server's identity within the cluster configuration.
	ID() wire.ServerID
	// Store writes a complete fragment (atomically on the server).
	Store(fid wire.FID, data []byte, mark bool, ranges []wire.ACLRange) error
	// Read returns n bytes at off of fragment fid.
	Read(fid wire.FID, off, n uint32) ([]byte, error)
	// Delete removes a fragment.
	Delete(fid wire.FID) error
	// Prealloc reserves a slot for fid.
	Prealloc(fid wire.FID) error
	// LastMarked returns the newest marked fragment for client.
	LastMarked(client wire.ClientID) (wire.FID, bool, error)
	// Has reports whether the server stores fid and its size.
	Has(fid wire.FID) (uint32, bool, error)
	// List enumerates fragments owned by client (0 = all).
	List(client wire.ClientID) ([]wire.FID, error)
	// ACLCreate creates an access control list.
	ACLCreate(members []wire.ClientID) (wire.AID, error)
	// ACLModify changes ACL membership.
	ACLModify(aid wire.AID, add, remove []wire.ClientID) error
	// ACLDelete removes an ACL.
	ACLDelete(aid wire.AID) error
	// Stat returns server occupancy.
	Stat() (wire.StatResponse, error)
	// Ping checks liveness.
	Ping() error
	// Close releases the connection.
	Close() error
}

// rpc is the uniform request/response seam. Local and TCP implement it
// by exchanging the encoded request with a server: encode, exchange,
// check status, decode the reply into rsp. Resilient, Throttled and Flaky
// implement it by wrapping another rpc. close releases the transport.
type rpc interface {
	call(op wire.Op, req wire.Message, rsp wire.Message) error
	close() error
}

// conn layers the typed ServerConn methods over an rpc. Every ServerConn
// this package builds is, or embeds, a conn.
type conn struct {
	id wire.ServerID
	r  rpc
}

// seam exposes the conn inside any ServerConn this package built.
func (c *conn) seam() *conn { return c }

// rpcOf returns the rpc a decorator wraps: the seam itself for a
// connection this package built, otherwise an adapter that dispatches
// each op back onto sc's typed methods.
func rpcOf(sc ServerConn) rpc {
	if s, ok := sc.(interface{ seam() *conn }); ok {
		return s.seam().r
	}
	return connRPC{sc}
}

func (c *conn) ID() wire.ServerID { return c.id }

func (c *conn) Store(fid wire.FID, data []byte, mark bool, ranges []wire.ACLRange) error {
	return c.r.call(wire.OpStore, &wire.StoreRequest{FID: fid, Mark: mark, Ranges: ranges, Data: data}, &wire.GenericResponse{})
}

func (c *conn) Read(fid wire.FID, off, n uint32) ([]byte, error) {
	var rsp wire.ReadResponse
	if err := c.r.call(wire.OpRead, &wire.ReadRequest{FID: fid, Off: off, Len: n}, &rsp); err != nil {
		return nil, err
	}
	return rsp.Data, nil
}

func (c *conn) Delete(fid wire.FID) error {
	return c.r.call(wire.OpDelete, &wire.DeleteRequest{FID: fid}, &wire.GenericResponse{})
}

func (c *conn) Prealloc(fid wire.FID) error {
	return c.r.call(wire.OpPrealloc, &wire.PreallocRequest{FID: fid}, &wire.GenericResponse{})
}

func (c *conn) LastMarked(client wire.ClientID) (wire.FID, bool, error) {
	var rsp wire.LastMarkedResponse
	if err := c.r.call(wire.OpLastMarked, &wire.LastMarkedRequest{Client: client}, &rsp); err != nil {
		return 0, false, err
	}
	return rsp.FID, rsp.Found, nil
}

func (c *conn) Has(fid wire.FID) (uint32, bool, error) {
	var rsp wire.HasFragmentResponse
	if err := c.r.call(wire.OpHasFragment, &wire.HasFragmentRequest{FID: fid}, &rsp); err != nil {
		return 0, false, err
	}
	return rsp.Size, rsp.Found, nil
}

func (c *conn) List(client wire.ClientID) ([]wire.FID, error) {
	var rsp wire.ListFIDsResponse
	if err := c.r.call(wire.OpListFIDs, &wire.ListFIDsRequest{Client: client}, &rsp); err != nil {
		return nil, err
	}
	return rsp.FIDs, nil
}

func (c *conn) ACLCreate(members []wire.ClientID) (wire.AID, error) {
	var rsp wire.ACLCreateResponse
	if err := c.r.call(wire.OpACLCreate, &wire.ACLCreateRequest{Members: members}, &rsp); err != nil {
		return 0, err
	}
	return rsp.AID, nil
}

func (c *conn) ACLModify(aid wire.AID, add, remove []wire.ClientID) error {
	return c.r.call(wire.OpACLModify, &wire.ACLModifyRequest{AID: aid, Add: add, Remove: remove}, &wire.GenericResponse{})
}

func (c *conn) ACLDelete(aid wire.AID) error {
	return c.r.call(wire.OpACLDelete, &wire.ACLDeleteRequest{AID: aid}, &wire.GenericResponse{})
}

func (c *conn) Stat() (wire.StatResponse, error) {
	var rsp wire.StatResponse
	err := c.r.call(wire.OpStat, &wire.StatRequest{}, &rsp)
	return rsp, err
}

func (c *conn) Ping() error {
	return c.r.call(wire.OpPing, &wire.PingRequest{}, &wire.GenericResponse{})
}

func (c *conn) Close() error { return c.r.close() }

// connRPC adapts a ServerConn this package did not build (a test double,
// or a decorator defined elsewhere) to the rpc seam.
type connRPC struct{ sc ServerConn }

func (a connRPC) call(op wire.Op, req wire.Message, rsp wire.Message) error {
	var err error
	switch q := req.(type) {
	case *wire.PingRequest:
		err = a.sc.Ping()
	case *wire.StoreRequest:
		err = a.sc.Store(q.FID, q.Data, q.Mark, q.Ranges)
	case *wire.ReadRequest:
		rsp.(*wire.ReadResponse).Data, err = a.sc.Read(q.FID, q.Off, q.Len)
	case *wire.DeleteRequest:
		err = a.sc.Delete(q.FID)
	case *wire.PreallocRequest:
		err = a.sc.Prealloc(q.FID)
	case *wire.LastMarkedRequest:
		p := rsp.(*wire.LastMarkedResponse)
		p.FID, p.Found, err = a.sc.LastMarked(q.Client)
	case *wire.HasFragmentRequest:
		p := rsp.(*wire.HasFragmentResponse)
		p.Size, p.Found, err = a.sc.Has(q.FID)
	case *wire.ListFIDsRequest:
		rsp.(*wire.ListFIDsResponse).FIDs, err = a.sc.List(q.Client)
	case *wire.ACLCreateRequest:
		rsp.(*wire.ACLCreateResponse).AID, err = a.sc.ACLCreate(q.Members)
	case *wire.ACLModifyRequest:
		err = a.sc.ACLModify(q.AID, q.Add, q.Remove)
	case *wire.ACLDeleteRequest:
		err = a.sc.ACLDelete(q.AID)
	case *wire.StatRequest:
		*rsp.(*wire.StatResponse), err = a.sc.Stat()
	default:
		err = &wire.StatusError{Status: wire.StatusBadRequest, Msg: "transport: no ServerConn method for " + op.String()}
	}
	return err
}

func (a connRPC) close() error { return a.sc.Close() }

// Broadcast queries every connection for fid concurrently and returns the
// connections that have it, and whether every connection answered.
// Unreachable servers are skipped: broadcast is exactly the mechanism
// that must work when a server is down.
func Broadcast(conns []ServerConn, fid wire.FID) (found []ServerConn, all bool) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	all = true
	for _, sc := range conns {
		wg.Add(1)
		go func(sc ServerConn) {
			defer wg.Done()
			_, ok, err := sc.Has(fid)
			mu.Lock()
			if err != nil {
				all = false
			} else if ok {
				found = append(found, sc)
			}
			mu.Unlock()
		}(sc)
	}
	wg.Wait()
	return found, all
}
