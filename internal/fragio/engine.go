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
//   - one parallel scatter-gather of stripe members (GatherK), which
//     turns a width-W reconstruction from W sequential round trips into
//     one fan-out and returns once k members have landed. A member is
//     either a whole fragment, fetched and verified, or one payload byte
//     range of it (Member.Len > 0), read with a single ReadAt: a
//     degraded 4 KB read decodes the 4 KB it needs from k small reads
//     instead of k whole fragments. Both shapes share the quorum, the
//     broadcast fallback and the straggler drain;
//   - singleflight deduplication keyed by FID or by a byte range of one
//     (Single, SingleRange, Locate), so N concurrent readers of the same
//     lost fragment or block pay for one reconstruction and one
//     broadcast discovery, not N;
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

	"swarm/internal/placement"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// ErrNotFound is returned by Locate when every server answered and none
// stores the fragment.
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
	// Format describes the fragment frame; required for Fetch/GatherK.
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
	// Gathers counts scatter-gather fan-outs (GatherK calls).
	Gathers int64
	// GatherMembers counts stripe members fetched across all gathers,
	// whole fragments and byte ranges alike; a range member's ReadAt
	// also counts in Reads.
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
	// execution instead of running their own, as they join.
	SharedFlights int64
	// SharedLocates counts Locate calls that joined an in-flight
	// broadcast, the same way; one that then re-broadcasts counts here
	// and in Broadcasts.
	SharedLocates int64
	// KGathers counts quorum fan-outs (GatherK calls with k below the
	// member count, which can return early).
	KGathers int64
	// GatherStragglers counts members a GatherK abandoned after its
	// quorum was reached (their fetches complete in the background and
	// their buffers are recycled).
	GatherStragglers int64
}

// span keys a flight: a whole fragment (n == 0) or n bytes of its
// payload at off.
type span struct {
	fid    wire.FID
	off, n uint32
}

// Engine is the fragment I/O engine for one client over one cluster.
// All methods are safe for concurrent use. The engine keeps no server
// list of its own: the placement map is the one registry of who is in
// the cluster, read for hints (Conn) and the broadcast set (Conns).
// Blocking work (semaphore waits, I/O) always happens outside the
// engine mutex, so an op racing a membership change completes against
// the connection and queue it captured.
type Engine struct {
	format     Format
	storeDepth int
	place      *placement.Map

	flights singleflight[span]     // reconstruction and range decodes
	locates singleflight[wire.FID] // broadcast discovery

	mu sync.Mutex
	// storeSems and fetchSems are the per-server bounded queues, created
	// on a server's first use and never deleted: IDs are never reused
	// (placement.NextID), so a departed server's queue is only a few
	// idle bytes. Guarded by mu.
	storeSems map[wire.ServerID]chan struct{}
	fetchSems map[wire.ServerID]chan struct{}
	inflight  int // dispatched async stores not yet complete; guarded by mu
	cond      *sync.Cond
	stats     Stats // guarded by mu
}

// New builds an engine over the cluster's placement map.
func New(place *placement.Map, opts Options) *Engine {
	if opts.StoreDepth <= 0 {
		opts.StoreDepth = 2
	}
	e := &Engine{
		format:     opts.Format,
		storeDepth: opts.StoreDepth,
		place:      place,
		storeSems:  make(map[wire.ServerID]chan struct{}),
		fetchSems:  make(map[wire.ServerID]chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	e.flights.init(func() { e.bump(func(s *Stats) { s.SharedFlights++ }) })
	e.locates.init(func() { e.bump(func(s *Stats) { s.SharedLocates++ }) })
	return e
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// queue returns server id's store or fetch semaphore, creating it on
// first use.
func (e *Engine) queue(id wire.ServerID, store bool) chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	sems, depth := e.fetchSems, fetchDepth
	if store {
		sems, depth = e.storeSems, e.storeDepth
	}
	sem, ok := sems[id]
	if !ok {
		sem = make(chan struct{}, depth)
		sems[id] = sem
	}
	return sem
}

func (e *Engine) acquireFetch(id wire.ServerID) func() {
	sem := e.queue(id, false)
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
// location). A server not in the placement map — including the zero
// value for "unknown" — sends the fetch straight to broadcast discovery.
//
// With Len > 0 the member is the payload byte range [Off, Off+Len): one
// ReadAt past the header, with no header fetch and no payload check
// (the check covers the whole payload; the wire CRC still covers the
// bytes read). The caller clamps the range to the member's length.
type Member struct {
	FID      wire.FID
	Server   wire.ServerID
	Off, Len uint32
}

// Result is one gathered fragment or range. From is the server that
// actually supplied it (it may differ from Member.Server after a
// broadcast fallback); Decoded is the Format-decoded header, nil for a
// range member.
type Result struct {
	Member
	From    wire.ServerID
	Decoded any
	Payload []byte
	Err     error
}

// GatherK fetches members concurrently — the scatter-gather fan-out
// that stripe reconstruction is built on — and returns as soon as k of
// them have succeeded: any k of a stripe's members suffice, and waiting
// for the rest only adds the slowest servers' latency. With k ≥
// len(members) it waits for every member. Each member respects its
// server's bounded fetch queue and falls back to broadcast discovery
// when its preferred server fails it. The returned slice always has one
// Result per member, in order: members not waited for carry Err ==
// ErrSkipped. Fetches still in flight when the quorum lands keep running
// in the background; a drainer recycles their payload buffers, so
// callers must treat only the returned Results' payloads as theirs to
// release. Members may be whole fragments or byte ranges (Member.Len),
// mixed freely.
func (e *Engine) GatherK(members []Member, k int) []Result {
	e.bump(func(s *Stats) {
		s.Gathers++
		s.GatherMembers += int64(len(members))
		if k < len(members) {
			s.KGathers++
		}
	})
	type indexed struct {
		i int
		r Result
	}
	ch := make(chan indexed, len(members))
	for i, m := range members {
		go func(i int, m Member) {
			ch <- indexed{i, e.FetchMember(m)}
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

// FetchMember fetches one fragment (or the range a member names) the
// way GatherK fetches each member: preferred server first, broadcast
// discovery as the fallback.
func (e *Engine) FetchMember(m Member) Result {
	res := Result{Member: m}
	if conn := e.place.Conn(m.Server); conn != nil {
		res.Decoded, res.Payload, res.Err = e.fetchFrom(conn, m)
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
	res.Decoded, res.Payload, res.Err = e.fetchFrom(conn, m)
	if res.Err == nil {
		res.From = conn.ID()
	}
	return res
}

// fetchFrom reads member m from conn: its range, or the whole fragment.
func (e *Engine) fetchFrom(conn transport.ServerConn, m Member) (any, []byte, error) {
	if m.Len > 0 {
		p, err := e.ReadAt(conn, m.FID, e.format.HeaderSize()+m.Off, m.Len)
		return nil, p, err
	}
	return e.Fetch(conn, m.FID)
}

// Locate finds a server holding fid by broadcasting to every member of
// the placement map — the self-hosting discovery of §2.3.3. Concurrent
// Locate calls for the same FID share one broadcast; shared reports
// whether this caller got an in-flight discovery's answer rather than
// performing its own. A joiner handed "not every server answered" runs
// one broadcast of its own: the flight may have begun while a server
// that has since come back was down. A not-found answer, which every
// server gave, is shared as is.
func (e *Engine) Locate(fid wire.FID) (conn transport.ServerConn, shared bool, err error) {
	v, shared, err := e.locates.do(fid, func() (any, error) { return e.broadcast(fid) })
	if shared && errors.Is(err, transport.ErrUnavailable) {
		v, err = e.broadcast(fid)
		shared = false
	}
	if err != nil {
		return nil, shared, err
	}
	return v.(transport.ServerConn), shared, nil
}

// broadcast asks every member whether it holds fid.
func (e *Engine) broadcast(fid wire.FID) (any, error) {
	e.bump(func(s *Stats) { s.Broadcasts++ })
	found, all := transport.Broadcast(e.place.Conns(), fid)
	switch {
	case len(found) > 0:
		return found[0], nil // swarmlint:placement-ok (any holder serves a broadcast discovery; no slot is being resolved)
	case all:
		return nil, fmt.Errorf("%w: %v", ErrNotFound, fid)
	default:
		return nil, fmt.Errorf("%w: %v is on none of the servers that answered", transport.ErrUnavailable, fid)
	}
}

// Single runs fn once per concurrently-requested FID: callers that
// arrive while fn is in flight wait for and share its result instead of
// executing their own copy. Reconstruction uses this so N concurrent
// readers of the same lost fragment pay one stripe fan-out.
func (e *Engine) Single(fid wire.FID, fn func() (any, error)) (v any, shared bool, err error) {
	return e.flights.do(span{fid: fid}, fn)
}

// SingleRange is Single for one payload byte range [off, off+n) of
// fid: concurrent degraded readers of the same block share one range
// decode, while reads of other ranges, and a whole-fragment flight of
// the same FID, run their own.
func (e *Engine) SingleRange(fid wire.FID, off, n uint32, fn func() (any, error)) (v any, shared bool, err error) {
	return e.flights.do(span{fid: fid, off: off, n: n}, fn)
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
	sem := e.queue(conn.ID(), true)
	sem <- struct{}{}
	e.mu.Lock()
	e.inflight++
	e.mu.Unlock()
	go func() {
		err := e.Store(conn, fid, frame, mark, ranges)
		done(err)
		<-sem
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
