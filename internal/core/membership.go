package core

import (
	"errors"
	"fmt"

	"swarm/internal/placement"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// Elastic membership: the log's server set is no longer fixed at
// construction. AddServer/DrainServer/RemoveServer mutate the versioned
// placement map (internal/placement); every change closes the open
// stripe under its current epoch before publishing the next view, so a
// stripe's members are always placed under exactly one epoch — the one
// stamped in its fragment headers. The background rebalancer
// (internal/rebalance) drives fragments off draining servers through
// the MigrationTarget/NoteMigrated surface below.

// ErrNotEmpty is returned by RemoveServer while the server still holds
// this client's fragments (the drain has not finished).
var ErrNotEmpty = errors.New("core: server still holds fragments, drain first")

// AddServer admits a new storage server: the placement map publishes a
// new epoch whose active set includes it, so stripes opened from now on
// may place members there. The open stripe (if any) is sealed under its
// own epoch first. aid, when nonzero, is the ACL protecting fragments
// this log stores on the new server (mirroring Config.ACLs for the
// construction set). Returns the new head epoch.
func (l *Log) AddServer(conn transport.ServerConn, aid wire.AID) (uint32, error) {
	// The same fragment-size sanity check Open applies to the
	// construction set; an unreachable server is admitted (it may be
	// booting) and will surface as degraded writes until it answers.
	if st, err := conn.Stat(); err == nil && int(st.FragmentSize) != l.fragSize {
		return 0, fmt.Errorf("%w: server %d uses %d-byte fragments, client configured for %d",
			ErrConfig, conn.ID(), st.FragmentSize, l.fragSize)
	}
	l.mu.Lock()
	// Every Join runs under mu, so a duplicate is refused here before
	// the open stripe is sealed for nothing.
	if l.place.Conn(conn.ID()) != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("%w: server %d already in configuration", ErrConfig, conn.ID())
	}
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	sealed := l.closeStripeLocked(false)
	epoch, err := l.place.Join(conn)
	if err == nil && aid != 0 {
		l.acls[conn.ID()] = aid
	}
	l.mu.Unlock()
	l.ship(sealed)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return epoch, nil
}

// DrainServer marks a server draining: it leaves the active placement
// ring (no new stripe targets it) but keeps serving reads while its
// fragments migrate. Fails with a configuration error when the drain
// would leave fewer active servers than the stripe width — stripes
// could no longer place their members on distinct servers. Returns the
// new head epoch. Draining an already-draining server is a no-op.
func (l *Log) DrainServer(id wire.ServerID) (uint32, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	sealed := l.closeStripeLocked(false)
	epoch, err := l.place.Drain(id, l.width)
	l.mu.Unlock()
	l.ship(sealed)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return epoch, nil
}

// RemoveServer completes a drain: the server leaves the map entirely
// and resolution of its old placements falls forward to the head view.
// The server must be draining and hold none of this client's fragments
// — unless it is unreachable, in which case it is removed on the
// strength of the drain having migrated (or reconstructed) everything
// it held. The caller owns closing the connection. Returns the new
// head epoch.
func (l *Log) RemoveServer(id wire.ServerID) (uint32, error) {
	conn := l.place.Conn(id)
	if conn == nil {
		return 0, fmt.Errorf("%w: server %d not in configuration", ErrConfig, id)
	}
	if st, ok := l.place.Head().StateOf(id); !ok || st != placement.Draining {
		return 0, fmt.Errorf("%w: server %d is not draining", ErrConfig, id)
	}
	if fids, err := conn.List(l.client); err == nil && len(fids) > 0 {
		return 0, fmt.Errorf("%w: server %d holds %d fragments", ErrNotEmpty, id, len(fids))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	sealed := l.closeStripeLocked(false)
	epoch, err := l.place.Remove(id)
	if err == nil {
		// State keyed on the departed server would only mislead:
		// locations fall back to placement/discovery, and deferred
		// deletes died with the server's disks. A degraded member sent
		// there stays degraded. A record left holding nothing goes.
		for stripe, s := range l.stripes {
			for i := range s.members {
				if s.members[i].server == id {
					s.members[i].server = 0
				}
			}
			if s.blank() {
				l.dropStripeLocked(stripe)
			}
		}
		for fid, sid := range l.pendingDel {
			if sid == id {
				delete(l.pendingDel, fid)
			}
		}
		delete(l.acls, id)
	}
	l.mu.Unlock()
	l.ship(sealed)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return epoch, nil
}

// NextServerID returns the ID a newly joining server should use: one
// past the highest ever assigned, so IDs are never reused and a stale
// location hint can never point at the wrong machine.
func (l *Log) NextServerID() wire.ServerID { return l.place.NextID() }

// PlacementEpoch returns the head placement epoch — the rebalancer's
// fencing token: a move planned under one epoch re-validates its target
// if the epoch advanced before the source copy is deleted.
func (l *Log) PlacementEpoch() uint32 { return l.place.Epoch() }

// Placement returns a snapshot of the head placement view.
func (l *Log) Placement() placement.Info { return l.place.Snapshot() }

// ServerConn returns the connection for a current member, or nil.
func (l *Log) ServerConn(id wire.ServerID) transport.ServerConn { return l.place.Conn(id) }

// ACL returns the ACL protecting this log's fragments on server id, and
// whether there is one.
func (l *Log) ACL(id wire.ServerID) (wire.AID, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	aid, ok := l.acls[id]
	return aid, ok
}

// ListServer enumerates this client's fragments on one server.
func (l *Log) ListServer(id wire.ServerID) ([]wire.FID, error) {
	conn := l.place.Conn(id)
	if conn == nil {
		return nil, fmt.Errorf("%w: server %d not in configuration", ErrConfig, id)
	}
	return conn.List(l.client)
}

// MigrationTarget picks the server a stripe member should move to when
// its holder is draining or gone: the head view's assignment for its
// slot, probed forward around the active ring past servers that already
// hold — or are already receiving (avoid) — another member of the same
// stripe, so one server failure can never cost a stripe two members.
// The stale-tolerant occupancy set (recorded locations plus the
// header's Group) can only push the probe further, never corrupt it.
func (l *Log) MigrationTarget(h *Header, source wire.ServerID, avoid ...wire.ServerID) (transport.ServerConn, error) {
	head := l.place.Head()
	n := head.NumActive()
	if n == 0 {
		return nil, fmt.Errorf("%w: no active servers", ErrConfig)
	}
	stripe, slot := h.StripeID, int(h.Index)
	occupied := make(map[wire.ServerID]bool, int(h.Width)+len(avoid))
	occupied[source] = true
	for _, id := range avoid {
		occupied[id] = true
	}
	l.mu.Lock()
	for i := 0; i < int(h.Width); i++ {
		if i == slot {
			continue
		}
		if sid := l.serverOfLocked(h.MemberFID(i)); sid != 0 {
			occupied[sid] = true
		} else if g := h.Group[i]; g != 0 {
			occupied[g] = true
		}
	}
	l.mu.Unlock()
	for probe := 0; probe < n; probe++ {
		if id := head.ServerAt(stripe, slot+probe); !occupied[id] {
			return l.place.Conn(id), nil
		}
	}
	// Every active server looked occupied — possible only through stale
	// hints, since a stripe has at most Width-1 other members and the
	// drain validated n ≥ Width. Fall back to the bare head assignment,
	// skipping only the source.
	for probe := 0; probe < n; probe++ {
		if id := head.ServerAt(stripe, slot+probe); id != source {
			return l.place.Conn(id), nil
		}
	}
	return nil, fmt.Errorf("%w: no migration target for %v (source %d is the only active server)", ErrConfig, h.FID, source)
}

// NoteMigrated records a verified rebalancer move: fid now lives on
// server to. Reads follow the new location immediately, a degraded
// write's held frame goes back to the pool, and the rebalance counters
// advance.
func (l *Log) NoteMigrated(fid wire.FID, to wire.ServerID, bytes int) {
	l.mu.Lock()
	held := l.noteStoredLocked(fid, to)
	l.stats.RebalancedFragments++
	l.stats.RebalancedBytes += int64(bytes)
	l.mu.Unlock()
	l.releaseFrame(held)
}

// NoteOrphan defers deletion of fid on an unreachable server until it
// answers again (FlushDeletes), mirroring ReclaimStripe's handling. If
// the server is instead removed, the orphan dies with it.
func (l *Log) NoteOrphan(fid wire.FID, id wire.ServerID) {
	l.mu.Lock()
	l.pendingDel[fid] = id
	l.stats.DeferredDeletes++
	l.mu.Unlock()
}

// LocationsOn returns the fragments this session recorded as living on
// one server, in sequence order — the drain survey for a source that no
// longer answers List.
func (l *Log) LocationsOn(id wire.ServerID) []wire.FID {
	return l.membersWhere(func(m *memberSlot) bool { return m.server == id })
}

// DegradedOn returns the degraded-write fragments destined for one
// server: sealed members whose store was skipped while the server was
// unreachable: its recorded server is the one its store was sent to. A
// drain migrates these too (served from the held frame or stripe
// reconstruction), since the draining server will never receive them.
func (l *Log) DegradedOn(id wire.ServerID) []wire.FID {
	return l.membersWhere(func(m *memberSlot) bool { return m.degraded && m.server == id })
}

// FetchFrameFrom reads and validates fragment fid from one specific
// server through the engine's bounded fetch queue — the rebalancer's
// read-from-source path (no reconstruction, no discovery fallback).
func (l *Log) FetchFrameFrom(id wire.ServerID, fid wire.FID) (Header, []byte, error) {
	conn := l.place.Conn(id)
	if conn == nil {
		return Header{}, nil, fmt.Errorf("%w: server %d not in configuration", ErrConfig, id)
	}
	return l.engineFetch(conn, fid)
}

// StoreFrame writes a header+payload frame to conn with the log's ACL
// protection, through the engine's store policy (one conn.Store call;
// StatusExists is success).
func (l *Log) StoreFrame(conn transport.ServerConn, h *Header, payload []byte) error {
	frame := wire.GetBuffer(HeaderSize + len(payload))
	putHeader(frame, h)
	copy(frame[HeaderSize:], payload)
	err := l.engine.Store(conn, h.FID, frame, false, l.rangesFor(conn, len(frame)))
	wire.PutBuffer(frame)
	return err
}

// VerifyFrameOn reads fid's header back from a server and checks it
// names the same fragment bytes (FID and payload CRC) as h — the
// rebalancer's verify-before-delete step.
func (l *Log) VerifyFrameOn(conn transport.ServerConn, h *Header) error {
	hdrBytes, err := l.engine.ReadAt(conn, h.FID, 0, HeaderSize)
	if err != nil {
		return err
	}
	got, err := DecodeHeader(hdrBytes)
	wire.PutBuffer(hdrBytes)
	if err != nil {
		return err
	}
	if got.FID != h.FID || got.PayloadCRC != h.PayloadCRC {
		return fmt.Errorf("%w: fragment %v on server %d does not match its source", ErrBadFragment, h.FID, conn.ID())
	}
	return nil
}

// DeleteFrom deletes fid from one server. StatusNotFound is success
// (the fragment is gone, which is what was asked).
func (l *Log) DeleteFrom(conn transport.ServerConn, fid wire.FID) error {
	err := conn.Delete(fid)
	if err != nil && !wire.IsStatus(err, wire.StatusNotFound) {
		return err
	}
	return nil
}
