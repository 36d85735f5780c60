package sting

import (
	"errors"
	"fmt"
	"sort"

	"swarm/internal/core"
	"swarm/internal/vfs"
	"swarm/internal/wire"
)

// ID implements service.Service.
func (fs *FS) ID() core.ServiceID { return fs.svcID }

// RestoreCheckpoint implements service.Service: load the allocator and
// the inode map's root from Sting's newest checkpoint. The inode map's
// blocks are read as lookups reach them.
func (fs *FS) RestoreCheckpoint(payload []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.replay = &replayState{
		versions: make(map[uint64]relinkRec),
		relinks:  make(map[uint64][]relinkRec),
		void:     make(map[core.BlockAddr]bool),
	}
	if payload == nil {
		return nil
	}
	d := wire.NewDecoder(payload)
	fs.nextIno = d.U64()
	fs.seq = d.U64()
	fs.ckptSeq = fs.seq
	imap, err := decodeRoot(d)
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		return fmt.Errorf("sting: bad checkpoint: %w", err)
	}
	fs.imap = imap
	return nil
}

var errReplayAfterMount = errors.New("sting: replay after mount")

// replayState gathers the records after the checkpoint. Nothing is read
// while records arrive: a relocated block's parent may itself have been
// relocated by a record further on, so the relinks are applied top-down
// once every record is in (finishReplayLocked).
type replayState struct {
	imapSets    []relinkRec             // inode records and unlinks, in log order
	imapRelinks []relinkRec             // relocated inode-map blocks
	versions    map[uint64]relinkRec    // inode versions flushed after the checkpoint
	relinks     map[uint64][]relinkRec  // relocated blocks of each inode's tree
	void        map[core.BlockAddr]bool // copies whose move never took effect
}

// relinkRec is one replayed creation record: the slot it names, the
// block and its gen, and where in the log the record sits.
type relinkRec struct {
	level int
	pos   uint64
	p     blockPtr
	gen   uint64
	at    core.Pos
}

// Replay implements service.Service, rolling the name space and file
// contents forward from the log's records (§2.1.3). An inode record
// rebinds the inode's inode-map slot; unlink records clear it. Every
// other creation record is a data, bucket or map block: one written by
// a flush whose inode record follows it (or never came, if the flush was
// cut short), or a copy the cleaner relocated. finishReplayLocked keeps
// only the relocations, less the copies a void record disowns.
func (fs *FS) Replay(rec core.ReplayEntry) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rs := fs.replay
	switch rec.Kind {
	case core.EntryCreate:
		cr, err := core.DecodeCreateRecord(rec.Payload)
		if err != nil {
			return err
		}
		h, err := decodeHint(cr.Hint)
		if err != nil {
			return err
		}
		if rs == nil {
			return errReplayAfterMount
		}
		r := relinkRec{level: int(h.level), pos: h.pos, p: blockPtr{addr: cr.Addr, len: cr.Len}, gen: h.gen, at: core.PosOf(rec.Pos)}
		fs.seq = max(fs.seq, h.gen)
		switch h.kind {
		case hintInode:
			rs.imapSets = append(rs.imapSets, r)
			// Versions flushed before the checkpoint have gen at most
			// ckptSeq; a higher gen not seen before is a new version, a
			// repeated one a relocated copy.
			if v, ok := rs.versions[h.ino]; h.gen > fs.ckptSeq && (!ok || h.gen > v.gen) {
				rs.versions[h.ino] = r
			}
			if h.ino >= fs.nextIno {
				fs.nextIno = h.ino + 1
			}
		case hintImap:
			rs.imapRelinks = append(rs.imapRelinks, r)
		default:
			rs.relinks[h.ino] = append(rs.relinks[h.ino], r)
		}
	case core.EntryDelete:
		// Deletions of old block versions carry no metadata changes;
		// the creation records already rebound everything.
	case core.EntryRecord:
		r, err := decodeRecord(rec.Payload)
		if err != nil {
			return err
		}
		if rs == nil {
			return errReplayAfterMount
		}
		if r.kind == recVoidCopy {
			rs.void[r.addr] = true
		} else {
			rs.imapSets = append(rs.imapSets, relinkRec{pos: r.ino})
		}
	}
	return nil
}

// finishReplayLocked applies what Replay gathered: relocated inode-map
// blocks, then the inode-map slots, then each inode's relocated blocks.
// A block relocation counts only if it is no newer than the inode's
// recovered version (else its flush never finished) and was appended
// after that version was flushed (else the version already has it).
// Relinks go top-down, so each walk reads parents at their final
// addresses. Caller holds fs.mu.
func (fs *FS) finishReplayLocked() error {
	rs := fs.replay
	fs.replay = nil
	var imapRelinks []relinkRec
	for _, r := range rs.imapRelinks {
		if r.gen <= fs.ckptSeq && !rs.void[r.p.addr] {
			imapRelinks = append(imapRelinks, r)
		}
	}
	if err := relinkTopDown(fs, &fs.imap, imapRelinks); err != nil {
		return err
	}
	for _, r := range rs.imapSets {
		if rs.void[r.p.addr] {
			continue
		}
		if _, err := fs.imap.set(fs, r.pos, r.p); err != nil {
			return err
		}
	}
	inos := make([]uint64, 0, len(rs.relinks))
	for ino := range rs.relinks {
		inos = append(inos, ino)
	}
	sortUint64s(inos)
	for _, ino := range inos {
		in, err := fs.loadInode(ino)
		if errors.Is(err, vfs.ErrNotExist) {
			continue // never flushed, or since unlinked
		}
		if err != nil {
			return err
		}
		v, flushedAfter := rs.versions[ino]
		var keep []relinkRec
		for _, r := range rs.relinks[ino] {
			if r.gen <= in.gen && (!flushedAfter || v.at.Less(r.at)) && !rs.void[r.p.addr] {
				keep = append(keep, r)
			}
		}
		if len(keep) > 0 {
			fs.dirtyIno[ino] = true
		}
		if err := relinkTopDown(fs, &in.tree, keep); err != nil {
			return err
		}
	}
	return nil
}

// relinkTopDown applies rs to t, highest level first, in log order
// within a level.
func relinkTopDown(fs *FS, t *ptree, rs []relinkRec) error {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].level > rs[j].level })
	for _, rl := range rs {
		if _, err := t.relink(fs, rl.level, rl.pos, rl.p, core.BlockAddr{}, true); err != nil {
			return err
		}
	}
	return nil
}

// BlockMoved implements service.Service: the cleaner relocated a block;
// rebind the slot the hint names if it still points at the old copy.
// Replay would drop a copy appended before Sting's newest checkpoint
// (records before it are not replayed), or before the owning inode's
// current version was flushed (that version is taken to have it), so
// such a move is written out at once: by a flush of the inode, or for
// an inode-map block by a checkpoint. A copy of a block the owner
// replaced after the cleaner found it live would be replayed over the
// newer block, so it is voided instead.
func (fs *FS) BlockMoved(old, newAddr core.BlockAddr, length uint32, hintBytes []byte) error {
	h, err := decodeHint(hintBytes)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cache != nil {
		fs.cache.Invalidate(old)
	}
	p := blockPtr{addr: newAddr, len: length}
	moved, flush := false, fs.beforeCheckpointLocked(newAddr)
	switch h.kind {
	case hintInode:
		var cur blockPtr
		if cur, err = fs.imap.get(fs, h.ino); err == nil && cur.addr == old {
			_, err = fs.imap.set(fs, h.ino, p)
			moved = err == nil
		}
	case hintImap:
		if moved, err = fs.imap.relink(fs, int(h.level), h.pos, p, old, false); moved && flush {
			return fs.checkpointLocked()
		}
	default:
		var in *inode
		if in, err = fs.loadInode(h.ino); errors.Is(err, vfs.ErrNotExist) {
			err = nil // inode gone; the move is moot
		} else if err == nil {
			moved, err = in.tree.relink(fs, int(h.level), h.pos, p, old, false)
			flush = flush || core.PosOf(newAddr).Less(in.flushedAt)
		}
	}
	switch {
	case err != nil:
		return err
	case !moved:
		if _, err := fs.log.AppendRecord(fs.svcID, encodeVoidRecord(newAddr)); err != nil {
			return err
		}
		return fs.log.DeleteBlock(newAddr, length, fs.svcID)
	case h.kind == hintImap, h.kind == hintInode && !flush:
		return nil
	}
	if _, err := fs.loadInode(h.ino); err != nil {
		return err
	}
	fs.dirtyIno[h.ino] = true
	if !flush {
		return nil
	}
	return fs.flushLocked()
}

func (fs *FS) beforeCheckpointLocked(addr core.BlockAddr) bool {
	ck, ok := fs.log.Checkpoint(fs.svcID)
	return ok && core.PosOf(addr).Less(core.PosOf(ck))
}

// BlockLive implements service.Service: a block is live iff the slot its
// hint names still points at it.
func (fs *FS) BlockLive(addr core.BlockAddr, hintBytes []byte) bool {
	h, err := decodeHint(hintBytes)
	if err != nil {
		return true // unrecognizable: keep it (safe)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var live bool
	switch h.kind {
	case hintInode:
		var cur blockPtr
		cur, err = fs.imap.get(fs, h.ino)
		live = cur.addr == addr
	case hintImap:
		live, err = fs.imap.live(fs, int(h.level), h.pos, addr)
	default:
		var in *inode
		if in, err = fs.loadInode(h.ino); errors.Is(err, vfs.ErrNotExist) {
			return false // inode gone: its blocks are dead
		}
		if err == nil {
			live, err = in.tree.live(fs, int(h.level), h.pos, addr)
		}
	}
	return live || err != nil // can't verify: keep it
}

// CheckpointDemand implements service.Service by checkpointing now.
func (fs *FS) CheckpointDemand() error {
	err := fs.Checkpoint()
	if errors.Is(err, vfs.ErrClosed) {
		return nil
	}
	return err
}
