package core

import (
	"fmt"
	"maps"

	"swarm/internal/transport"
	"swarm/internal/wire"
)

// RebuildServer restores redundancy after a storage server has been
// replaced with an empty one: every fragment of this log that belongs on
// the server (by placement) but is missing gets reconstructed from its
// stripe and stored back. Returns the number of fragments rebuilt.
//
// Rebuilding is client-driven like everything else in Swarm — the
// replacement server is an ordinary empty fragment repository and never
// learns it is being rebuilt. Each client rebuilds its own fragments;
// run this once per client after swapping hardware.
func (l *Log) RebuildServer(id wire.ServerID) (int, error) {
	conn := l.place.Conn(id)
	if conn == nil {
		return 0, fmt.Errorf("%w: server %d not in configuration", ErrConfig, id)
	}
	// Reads that failed over while the server was down may have left its
	// circuit open; the caller says a replacement is up, so ask it now
	// rather than fail fast until the open timeout runs out.
	if p, ok := conn.(transport.Prober); ok {
		_ = p.Probe()
	}
	// Clear out deletions deferred while servers were unreachable: their
	// stripes are already reclaimed, so any orphan still listed would be
	// mistaken for a live stripe member below.
	l.FlushDeletes()
	l.mu.Lock()
	stale := maps.Clone(l.pendingDel)
	l.mu.Unlock()
	// What the server already has.
	present := make(map[wire.FID]bool)
	fids, err := conn.List(l.client)
	if err != nil {
		return 0, fmt.Errorf("list server %d: %w", id, err)
	}
	for _, fid := range fids {
		if _, orphan := stale[fid]; !orphan {
			present[fid] = true
		}
	}
	// What exists anywhere (the stripe population), including fragments
	// this client failed to store while the server was unreachable
	// (degraded writes): those exist logically and are reconstructable
	// from their stripe's parity.
	known := make(map[uint64]bool)
	for _, sc := range l.place.Conns() {
		all, err := sc.List(l.client)
		if err != nil {
			continue
		}
		for _, fid := range all {
			if _, orphan := stale[fid]; !orphan {
				known[fid.Seq()] = true
			}
		}
	}
	for _, fid := range l.DegradedFIDs() {
		known[fid.Seq()] = true
	}

	stripes := make(map[uint64]bool)
	for seq := range known {
		stripes[l.stripeOf(seq)] = true
	}
	rebuilt := 0
	for stripe := range stripes {
		for idx := 0; idx < l.width; idx++ {
			// A fragment belongs here if its stripe's placement assigns
			// the slot to this server — under the stripe's own epoch for
			// stripes written this session, the head view otherwise.
			if l.connAt(stripe, idx).ID() != id {
				continue
			}
			fid := wire.MakeFID(l.client, stripe*uint64(l.width)+uint64(idx))
			if present[fid] {
				continue
			}
			// Does the stripe have any surviving member to rebuild from?
			if !l.stripeHasSurvivors(known, fid.Seq()) {
				continue
			}
			// FetchFragment serves degraded writes from the local
			// read-your-writes copy and empty members as zero bytes, and
			// reconstructs everything else from the stripe's surviving
			// members.
			h, payload, err := l.FetchFragment(fid)
			if err != nil {
				return rebuilt, fmt.Errorf("reconstruct %v: %w", fid, err)
			}
			if h.Kind == FragData && h.DataLen == 0 {
				continue // an empty member: never stored, nothing to rebuild
			}
			// The engine's store policy treats StatusExists as success —
			// here that means the store raced with another writer and the
			// fragment is on the server either way.
			if err := l.StoreFrame(conn, &h, payload); err != nil {
				return rebuilt, fmt.Errorf("store rebuilt %v: %w", fid, err)
			}
			// The member is on its server now: a degraded write's held
			// frame goes back to the pool.
			l.mu.Lock()
			held := l.noteStoredLocked(fid, id)
			l.mu.Unlock()
			l.releaseFrame(held)
			rebuilt++
		}
	}
	return rebuilt, nil
}

// rangesFor returns the ACL ranges to apply when storing a whole frame to
// conn, mirroring the write path's protection.
func (l *Log) rangesFor(conn transport.ServerConn, frameLen int) []wire.ACLRange {
	if aid, ok := l.ACL(conn.ID()); ok {
		return []wire.ACLRange{{Off: 0, Len: uint32(frameLen), AID: aid}}
	}
	return nil
}
