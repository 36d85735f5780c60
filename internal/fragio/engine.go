// Package fragio is the client-side fragment I/O engine: one shared
// machine for every layer that fetches fragments from storage servers —
// remote reads, stripe reconstruction, server rebuild, recovery scans,
// and the cleaner. Swarm's self-hosting design (§2.3.3) puts all of that
// work on clients, and before this package existed each layer
// re-implemented its own fetch loop and issued requests one server at a
// time. The engine owns:
//
//   - per-server request queues with bounded concurrency, so a burst of
//     fetches neither serializes behind one round trip nor floods a
//     single server;
//   - parallel scatter-gather fetch of stripe members (Gather), turning
//     width-W reconstruction from W sequential round trips into one
//     fan-out bounded by the slowest surviving member;
//   - singleflight deduplication keyed by FID (Single, Locate), so N
//     concurrent readers of the same lost fragment pay for one
//     reconstruction and one broadcast discovery, not N;
//   - one store path that never re-sends: retry, backoff and the
//     circuit breaker belong to transport.Resilient alone, so a failed
//     store costs at most that layer's attempts, not a product of
//     layers. A StatusExists answer (a retried store whose first attempt
//     committed) counts as success.
//
// The engine sits below internal/core (which owns the log format and
// reconstruction math) and above internal/transport (which owns the wire
// protocol and per-connection resilience). It deliberately knows nothing
// about core's header encoding: callers describe the frame layout
// through the Format interface.
package fragio

import (
	"errors"
	"fmt"
	"sync"

	"swarm/internal/transport"
	"swarm/internal/wire"
)

// ErrNotFound is returned by Locate when no reachable server stores the
// fragment.
var ErrNotFound = errors.New("fragio: fragment not found on any server")

// ErrSkipped marks a GatherK member that was not waited for because the
// quorum had already been reached. It is not a failure: the member was
// simply unnecessary.
var ErrSkipped = errors.New("fragio: member skipped, gather quorum reached")

// Format describes the fragment frame layout to the engine, so it can
// fetch and validate whole fragments without importing the log format
// (fragio must stay below core in the dependency order).
type Format interface {
	// HeaderSize is the fixed encoded header length at offset 0.
	HeaderSize() uint32
	// Parse decodes and validates hdr as the header of fragment fid,
	// returning the decoded header (handed back to the caller untouched)
	// and the payload length to fetch.
	Parse(fid wire.FID, hdr []byte) (decoded any, payloadLen uint32, err error)
	// Verify checks payload integrity against the decoded header.
	Verify(decoded any, payload []byte) error
}

// Options tunes an Engine. The zero value selects the defaults noted on
// each field.
type Options struct {
	// Format describes the fragment frame; required for Fetch/Gather.
	Format Format
	// StoreDepth bounds concurrent stores per server — the write
	// pipeline depth (§2.1.2: one fragment crosses the network while the
	// server writes the previous one). Default 2.
	StoreDepth int
}

// fetchDepth bounds concurrent fetches per server, so scatter-gather
// bursts from reconstruction, the cleaner, and readahead don't flood one
// server.
const fetchDepth = 4

// Stats counts engine activity. Retrieve a snapshot with Engine.Stats.
type Stats struct {
	// Reads counts raw byte-range reads issued (ReadAt).
	Reads int64
	// Fetches counts whole-fragment fetches issued (Fetch).
	Fetches int64
	// Gathers counts scatter-gather fan-outs (Gather calls).
	Gathers int64
	// GatherMembers counts stripe members fetched across all Gathers.
	GatherMembers int64
	// Stores counts store operations issued.
	Stores int64
	// StoreRetries is always 0: the engine never re-sends a store
	// (retries are transport.Resilient's, counted in its Health). It is
	// kept because the perfbench report still reads it.
	StoreRetries int64
	// Broadcasts counts broadcast discoveries actually performed.
	Broadcasts int64
	// SharedFlights counts Single calls that joined an in-flight
	// execution instead of running their own.
	SharedFlights int64
	// SharedLocates counts Locate calls deduplicated the same way.
	SharedLocates int64
	// KGathers counts quorum fan-outs (GatherK calls that could return
	// early).
	KGathers int64
	// GatherStragglers counts members a GatherK abandoned after its
	// quorum was reached (their fetches complete in the background and
	// their buffers are recycled).
	GatherStragglers int64
}

// Engine is the fragment I/O engine for one client over one cluster.
// All methods are safe for concurrent use, including the membership
// mutations AddServer/RemoveServer: the server set is read under the
// engine mutex, while blocking work (semaphore waits, I/O) always
// happens outside it, so an in-flight gather racing a removal completes
// against the channels it captured.
type Engine struct {
	format     Format
	storeDepth int

	flights singleflight // reconstruction and other per-FID work
	locates singleflight // broadcast discovery

	mu        sync.Mutex
	servers   []transport.ServerConn                 // guarded by mu
	byID      map[wire.ServerID]transport.ServerConn // guarded by mu
	storeSems map[wire.ServerID]chan struct{}        // guarded by mu
	fetchSems map[wire.ServerID]chan struct{}        // guarded by mu
	inflight  int                                    // dispatched async stores not yet complete; guarded by mu
	cond      *sync.Cond
	stats     Stats // guarded by mu
}

// New builds an engine over the cluster's connections.
func New(servers []transport.ServerConn, opts Options) *Engine {
	if opts.StoreDepth <= 0 {
		opts.StoreDepth = 2
	}
	e := &Engine{
		format:     opts.Format,
		storeDepth: opts.StoreDepth,
		byID:       make(map[wire.ServerID]transport.ServerConn, len(servers)),
		storeSems:  make(map[wire.ServerID]chan struct{}, len(servers)),
		fetchSems:  make(map[wire.ServerID]chan struct{}, len(servers)),
	}
	e.cond = sync.NewCond(&e.mu)
	e.flights.init()
	e.locates.init()
	for _, sc := range servers {
		e.servers = append(e.servers, sc)
		e.addLocked(sc)
	}
	return e
}

// addLocked installs sc's lookup entry and semaphores.
func (e *Engine) addLocked(sc transport.ServerConn) {
	id := sc.ID()
	e.byID[id] = sc
	e.storeSems[id] = make(chan struct{}, e.storeDepth)
	e.fetchSems[id] = make(chan struct{}, fetchDepth)
}

// AddServer admits a new server to the engine: it becomes a valid
// store/fetch target with fresh bounded queues and joins the broadcast
// set. Adding an ID that is already present is an error.
func (e *Engine) AddServer(sc transport.ServerConn) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.byID[sc.ID()]; dup {
		return fmt.Errorf("fragio: server %d already in engine", sc.ID()) // swarmlint:classified (configuration error, not an RPC outcome)
	}
	e.servers = append(append([]transport.ServerConn(nil), e.servers...), sc)
	e.addLocked(sc)
	return nil
}

// RemoveServer drops a server from the engine. Operations already in
// flight against it run to completion on the channels they captured;
// new fetches naming the ID miss the lookup and fall back to broadcast
// discovery over the remaining servers. Unknown IDs are a no-op.
func (e *Engine) RemoveServer(id wire.ServerID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.byID[id]; !ok {
		return
	}
	next := make([]transport.ServerConn, 0, len(e.servers)-1)
	for _, sc := range e.servers {
		if sc.ID() != id {
			next = append(next, sc)
		}
	}
	e.servers = next
	delete(e.byID, id)
	delete(e.storeSems, id)
	delete(e.fetchSems, id)
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Conn returns the connection for a server ID, or nil if the server is
// not (or no longer) in the configuration.
func (e *Engine) Conn(id wire.ServerID) transport.ServerConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.byID[id]
}

func (e *Engine) acquireFetch(id wire.ServerID) func() {
	e.mu.Lock()
	sem, ok := e.fetchSems[id]
	e.mu.Unlock()
	if !ok {
		// Unknown or just-removed server: no queue to respect. The fetch
		// itself will fail or succeed on the connection's own terms.
		return func() {}
	}
	sem <- struct{}{}
	return func() { <-sem }
}

func (e *Engine) bump(f func(*Stats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}

// ------------------------------------------------------------- fetching

// ReadAt reads n bytes at off of fragment fid from conn, through the
// server's bounded fetch queue.
func (e *Engine) ReadAt(conn transport.ServerConn, fid wire.FID, off, n uint32) ([]byte, error) {
	release := e.acquireFetch(conn.ID())
	defer release()
	e.bump(func(s *Stats) { s.Reads++ })
	return conn.Read(fid, off, n)
}

// Fetch reads and validates the whole fragment fid from conn: header,
// payload, and integrity check, through the server's bounded fetch
// queue. It returns the Format-decoded header alongside the payload.
func (e *Engine) Fetch(conn transport.ServerConn, fid wire.FID) (any, []byte, error) {
	release := e.acquireFetch(conn.ID())
	defer release()
	e.bump(func(s *Stats) { s.Fetches++ })
	hdrBytes, err := conn.Read(fid, 0, e.format.HeaderSize())
	if err != nil {
		return nil, nil, err
	}
	decoded, payloadLen, err := e.format.Parse(fid, hdrBytes)
	// Parse decodes into its own representation (the Format contract),
	// so the raw header buffer can go back to the transport's pool.
	wire.PutBuffer(hdrBytes)
	if err != nil {
		return nil, nil, err
	}
	if payloadLen == 0 {
		return decoded, nil, nil
	}
	payload, err := conn.Read(fid, e.format.HeaderSize(), payloadLen)
	if err != nil {
		return nil, nil, err
	}
	if err := e.format.Verify(decoded, payload); err != nil {
		// The pool-owned payload is not returned on this path; recycle it
		// instead of leaking it to the GC.
		wire.PutBuffer(payload)
		return nil, nil, err
	}
	return decoded, payload, nil
}

// Member names one fragment to gather: its FID and the server believed
// to hold it (the stripe group from a sibling header, or a recorded
// location). A server outside the configuration — including the zero
// value for "unknown" — sends the fetch straight to broadcast discovery.
type Member struct {
	FID    wire.FID
	Server wire.ServerID
}

// Result is one gathered fragment. From is the server that actually
// supplied it (it may differ from Member.Server after a broadcast
// fallback); Decoded is the Format-decoded header.
type Result struct {
	Member
	From    wire.ServerID
	Decoded any
	Payload []byte
	Err     error
}

// Gather fetches all members concurrently — the scatter-gather fan-out
// that reconstruction, rebuild, and the cleaner are built on. Each
// member respects its server's bounded fetch queue; a member whose
// preferred server fails it falls back to broadcast discovery. Gather
// always returns one Result per member, in order; callers decide whether
// individual failures are fatal (reconstruction needs every survivor,
// the cleaner tolerates absent members).
func (e *Engine) Gather(members []Member) []Result {
	e.bump(func(s *Stats) {
		s.Gathers++
		s.GatherMembers += int64(len(members))
	})
	out := make([]Result, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			out[i] = e.fetchMember(m)
		}(i, m)
	}
	wg.Wait()
	return out
}

// GatherK fetches members concurrently and returns as soon as k of them
// have succeeded — the erasure-coded read path, where any k of a
// stripe's members suffice and waiting for the rest only adds the
// slowest servers' latency. The returned slice always has one Result
// per member, in order: members not waited for carry Err == ErrSkipped.
// Fetches already in flight when the quorum lands keep running in the
// background; a drainer recycles their payload buffers, so callers must
// treat only the returned Results' payloads as theirs to release.
// When k ≥ len(members) this is exactly Gather.
func (e *Engine) GatherK(members []Member, k int) []Result {
	if k >= len(members) {
		return e.Gather(members)
	}
	e.bump(func(s *Stats) {
		s.Gathers++
		s.KGathers++
		s.GatherMembers += int64(len(members))
	})
	type indexed struct {
		i int
		r Result
	}
	ch := make(chan indexed, len(members))
	for i, m := range members {
		go func(i int, m Member) {
			ch <- indexed{i, e.fetchMember(m)}
		}(i, m)
	}
	out := make([]Result, len(members))
	for i, m := range members {
		out[i] = Result{Member: m, Err: ErrSkipped}
	}
	succeeded, received := 0, 0
	for received < len(members) && succeeded < k {
		x := <-ch
		received++
		out[x.i] = x.r
		if x.r.Err == nil {
			succeeded++
		}
	}
	if remaining := len(members) - received; remaining > 0 {
		e.bump(func(s *Stats) { s.GatherStragglers += int64(remaining) })
		// Stragglers' pooled buffers must not leak: drain them off the
		// channel as they land and recycle. The channel is buffered to
		// len(members), so the fetch goroutines never block either way.
		go func() {
			for j := 0; j < remaining; j++ {
				x := <-ch
				wire.PutBuffer(x.r.Payload)
			}
		}()
	}
	return out
}

// fetchMember fetches one gathered fragment: preferred server first,
// broadcast discovery as the fallback.
func (e *Engine) fetchMember(m Member) Result {
	res := Result{Member: m}
	if conn := e.Conn(m.Server); conn != nil {
		res.Decoded, res.Payload, res.Err = e.Fetch(conn, m.FID)
		if res.Err == nil {
			res.From = m.Server
			return res
		}
	}
	conn, _, err := e.Locate(m.FID)
	if err != nil {
		if res.Err == nil {
			res.Err = err
		}
		return res
	}
	res.Decoded, res.Payload, res.Err = e.Fetch(conn, m.FID)
	if res.Err == nil {
		res.From = conn.ID()
	}
	return res
}

// Locate finds a server holding fid by broadcasting to the cluster —
// the self-hosting discovery of §2.3.3. Concurrent Locate calls for the
// same FID share one broadcast; shared reports whether this caller
// joined an in-flight discovery rather than performing its own.
func (e *Engine) Locate(fid wire.FID) (conn transport.ServerConn, shared bool, err error) {
	v, shared, err := e.locates.do(fid, func() (any, error) {
		e.mu.Lock()
		servers := append([]transport.ServerConn(nil), e.servers...)
		e.stats.Broadcasts++
		e.mu.Unlock()
		found := transport.Broadcast(servers, fid)
		if len(found) == 0 {
			return nil, fmt.Errorf("%w: %v", ErrNotFound, fid)
		}
		return found[0], nil // swarmlint:placement-ok (any holder serves a broadcast discovery; no slot is being resolved)
	})
	if shared {
		e.bump(func(s *Stats) { s.SharedLocates++ })
	}
	if err != nil {
		return nil, shared, err
	}
	return v.(transport.ServerConn), shared, nil
}

// Single runs fn once per concurrently-requested FID: callers that
// arrive while fn is in flight wait for and share its result instead of
// executing their own copy. Reconstruction uses this so N concurrent
// readers of the same lost fragment pay one stripe fan-out.
func (e *Engine) Single(fid wire.FID, fn func() (any, error)) (v any, shared bool, err error) {
	v, shared, err = e.flights.do(fid, fn)
	if shared {
		e.bump(func(s *Stats) { s.SharedFlights++ })
	}
	return v, shared, err
}

// -------------------------------------------------------------- storing

// Store writes a fragment with exactly one call on conn: re-sending is
// the resilient transport's job. StatusExists maps to success — the
// fragment is committed (typically by an attempt whose response was
// lost), which is what the caller asked for.
func (e *Engine) Store(conn transport.ServerConn, fid wire.FID, frame []byte, mark bool, ranges []wire.ACLRange) error {
	e.bump(func(s *Stats) { s.Stores++ })
	err := conn.Store(fid, frame, mark, ranges)
	if wire.IsStatus(err, wire.StatusExists) {
		err = nil
	}
	return err
}

// StoreAsync dispatches Store on the server's bounded store queue. It
// blocks while the server's pipeline is full — the write flow control of
// §2.1.2 — then returns with the store running in the background. done
// is invoked with the final error (nil on success) before the store is
// counted complete, so a Wait that returns has observed every done
// callback's effects.
func (e *Engine) StoreAsync(conn transport.ServerConn, fid wire.FID, frame []byte, mark bool, ranges []wire.ACLRange, done func(error)) {
	e.mu.Lock()
	sem := e.storeSems[conn.ID()]
	e.mu.Unlock()
	if sem != nil {
		sem <- struct{}{}
	}
	e.mu.Lock()
	e.inflight++
	e.mu.Unlock()
	go func() {
		err := e.Store(conn, fid, frame, mark, ranges)
		done(err)
		if sem != nil {
			<-sem
		}
		e.mu.Lock()
		e.inflight--
		e.cond.Broadcast()
		e.mu.Unlock()
	}()
}

// Wait blocks until every dispatched asynchronous store has completed
// (and its done callback has run).
func (e *Engine) Wait() {
	e.mu.Lock()
	for e.inflight > 0 {
		e.cond.Wait()
	}
	e.mu.Unlock()
}
