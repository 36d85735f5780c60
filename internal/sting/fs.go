// Package sting implements the Sting file system of §3.1: a local
// (single-client) file system providing the standard UNIX interface, with
// its data stored in Swarm instead of on a local disk. Sting borrows from
// Sprite LFS but is smaller and simpler, because log management, storage,
// cleaning, and reconstruction are all handled by the Swarm layers below.
//
// Structure: as in Sprite LFS, every piece of metadata is a pointer tree
// of fixed-size map blocks (ptree.go). A file's inode holds the root of
// its block tree, a directory's the root of its hashed entry buckets
// (dir.go), and the inode map is a tree over inode numbers whose root is
// the checkpoint. A flush appends dirty data, then the dirty map blocks
// bottom-up, then the inode, so a Sync ships what it changed rather than
// a whole table, and no structure is capped at one fragment. File data
// sits in fixed-size blocks behind a write-back page cache (the prototype
// ran on a Linux "modified to support a write-back page cache", §3.3).
// Crash recovery replays the log layer's creation records plus Sting's
// own unlink and void records.
package sting

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"swarm/internal/blockcache"
	"swarm/internal/core"
	"swarm/internal/service"
	"swarm/internal/vfs"
	"swarm/internal/wire"
)

// DefaultServiceID is Sting's service ID unless configured otherwise.
const DefaultServiceID core.ServiceID = 10

// Config parameterizes a Sting file system.
type Config struct {
	// ServiceID identifies Sting in the log. Default DefaultServiceID.
	ServiceID core.ServiceID
	// BlockSize is the file data block size. Default 4096 (the paper's
	// benchmarks write 4 KB blocks).
	BlockSize int
	// DirtyLimit is the write-back threshold in bytes: exceeding it
	// triggers an automatic flush. Default 4 MB.
	DirtyLimit int64
	// CacheBytes sizes the client block cache for reads ("we expect
	// most reads to be handled by the client cache", §3.4). Zero
	// disables the cache.
	CacheBytes int64
}

// Stats counts file-system activity.
type Stats struct {
	Flushes      int64
	BlocksOut    int64 // data blocks appended
	InodesOut    int64 // inode blocks appended
	MapBlocksOut int64 // map and bucket blocks appended
	BytesWritten int64 // application bytes accepted by WriteAt
	BytesRead    int64
	Checkpoints  int64
}

type pageKey struct {
	ino uint64
	idx uint32
}

// FS is a mounted Sting file system.
type FS struct {
	svcID     core.ServiceID
	log       *core.Log
	blockSize int
	dirtyMax  int64
	cache     *blockcache.Cache
	now       func() time.Time

	mu         sync.Mutex
	closed     bool
	imap       ptree        // inode number → inode block
	seq        uint64       // numbers flushes and checkpoints; what each writes carries it as gen
	ckptSeq    uint64       // seq of the newest checkpoint, the gen of its inode-map blocks
	replay     *replayState // records gathered while mounting; nil after
	nextIno    uint64
	inodes     map[uint64]*inode // loaded inodes, with their loaded map blocks
	dirtyIno   map[uint64]bool
	pages      map[pageKey][]byte // dirty data pages (write-back cache)
	dirtyBytes int64
	unlinked   []uint64 // removed inodes whose unlink records the next flush appends
	stats      Stats
}

var _ service.Service = (*FS)(nil)
var _ vfs.FileSystem = (*FS)(nil)

// Mount registers Sting on the log (replaying any recovered state) and
// returns a usable file system. rec comes from core.Open; pass nil for a
// log known to be fresh.
func Mount(log *core.Log, reg *service.Registry, rec *core.Recovery, cfg Config) (*FS, error) {
	if cfg.ServiceID == 0 {
		cfg.ServiceID = DefaultServiceID
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 4096
	}
	if max(cfg.BlockSize, 64+2*mapBlockSize) > log.MaxBlockSize() {
		return nil, fmt.Errorf("sting: block size %d or metadata block exceeds log max %d", cfg.BlockSize, log.MaxBlockSize())
	}
	if cfg.DirtyLimit == 0 {
		cfg.DirtyLimit = 4 << 20
	}
	fs := &FS{
		svcID:     cfg.ServiceID,
		log:       log,
		blockSize: cfg.BlockSize,
		dirtyMax:  cfg.DirtyLimit,
		now:       time.Now,
		nextIno:   RootIno + 1,
		inodes:    make(map[uint64]*inode),
		dirtyIno:  make(map[uint64]bool),
		pages:     make(map[pageKey][]byte),
	}
	if cfg.CacheBytes > 0 {
		fs.cache = blockcache.New(log, cfg.CacheBytes)
	}
	var recovered *core.RecoveredService
	if rec != nil {
		recovered = rec.Service(cfg.ServiceID)
	}
	if err := reg.Register(fs, recovered); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.finishReplayLocked(); err != nil {
		return nil, err
	}
	if _, err := fs.loadInode(RootIno); errors.Is(err, vfs.ErrNotExist) {
		fs.inodes[RootIno] = newDirInode(RootIno, fs.now())
		fs.dirtyIno[RootIno] = true
	} else if err != nil {
		return nil, err
	}
	return fs, nil
}

// Log returns the underlying log (for integration with the cleaner).
func (fs *FS) Log() *core.Log { return fs.log }

// BlockSize returns the data block size.
func (fs *FS) BlockSize() int { return fs.blockSize }

// Stats returns a snapshot of activity counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// ----------------------------------------------------------- inode cache

// loadInode returns the in-memory inode for ino, reading it from the log
// if needed. Caller holds fs.mu.
func (fs *FS) loadInode(ino uint64) (*inode, error) {
	if in, ok := fs.inodes[ino]; ok {
		return in, nil
	}
	p, err := fs.imap.get(fs, ino)
	if err != nil {
		return nil, err
	}
	if p.isHole() {
		return nil, fmt.Errorf("%w: inode %d", vfs.ErrNotExist, ino)
	}
	data, err := fs.log.Read(p.addr, 0, p.len)
	if err != nil {
		return nil, fmt.Errorf("read inode %d: %w", ino, err)
	}
	in, err := decodeInode(data)
	if err != nil {
		return nil, err
	}
	if in.ino != ino {
		return nil, fmt.Errorf("sting: inode map slot %d holds inode %d", ino, in.ino)
	}
	in.flushedAt = core.PosOf(p.addr)
	fs.inodes[ino] = in
	return in, nil
}

// readNode loads a map block; it then stays resident in its tree.
func (fs *FS) readNode(p blockPtr) (*node, error) {
	data, err := fs.log.Read(p.addr, 0, p.len)
	if err != nil {
		return nil, fmt.Errorf("read map block %v: %w", p.addr, err)
	}
	return decodeNode(data)
}

func (fs *FS) markDirty(in *inode) {
	in.mtime = fs.now()
	fs.dirtyIno[in.ino] = true
}

func (fs *FS) allocIno() (uint64, error) {
	if fs.nextIno >= maxIndex {
		return 0, fmt.Errorf("%w: inode numbers exhausted", vfs.ErrNoSpace)
	}
	ino := fs.nextIno
	fs.nextIno++
	return ino, nil
}

// blocks returns how many blocks a file of size bytes spans.
func (fs *FS) blocks(size int64) uint64 {
	return uint64((size + int64(fs.blockSize) - 1) / int64(fs.blockSize))
}

// freeList collects blocks to delete once the metadata that stops using
// them is written; holes are skipped.
type freeList []blockPtr

func (f *freeList) add(p blockPtr) {
	if !p.isHole() {
		*f = append(*f, p)
	}
}

// deleteBlocks marks ps deleted in the log and drops them from the cache.
func (fs *FS) deleteBlocks(ps freeList) error {
	for _, p := range ps {
		if err := fs.log.DeleteBlock(p.addr, p.len, fs.svcID); err != nil {
			return err
		}
		if fs.cache != nil {
			fs.cache.Invalidate(p.addr)
		}
	}
	return nil
}

// ------------------------------------------------------------ name paths

// resolve walks components from the root, returning the final inode.
// Caller holds fs.mu.
func (fs *FS) resolve(parts []string) (*inode, error) {
	in, err := fs.loadInode(RootIno)
	if err != nil {
		return nil, err
	}
	for _, name := range parts {
		if !in.isDir() {
			return nil, fmt.Errorf("%w: %s", vfs.ErrNotDir, name)
		}
		ent, ok, err := fs.lookup(in, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, name)
		}
		if in, err = fs.loadInode(ent.ino); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// resolveParent resolves path into (parent dir inode, final name).
func (fs *FS) resolveParent(path string) (*inode, string, error) {
	parent, name, err := vfs.SplitDir(path)
	if err != nil {
		return nil, "", err
	}
	dir, err := fs.resolve(parent)
	if err != nil {
		return nil, "", err
	}
	if !dir.isDir() {
		return nil, "", vfs.ErrNotDir
	}
	return dir, name, nil
}

// --------------------------------------------------------------- flushing

// flushLocked writes every dirty page and inode to the log, inode by
// inode: data blocks, then the map blocks on their paths bottom-up, then
// the inode, so a flushed inode always references flushed blocks. The
// inode map is updated in memory; its blocks go out with the next
// checkpoint, and until then replaying the inode records rebuilds it.
// The blocks a flush replaces are deleted after every inode is written,
// so no deletion record precedes the metadata that stops using the
// block; likewise the unlink records follow the directories that drop
// the names, so a crash can orphan an inode but never leave a name
// pointing at a removed one. Caller holds fs.mu.
func (fs *FS) flushLocked() error {
	if len(fs.pages) == 0 && len(fs.dirtyIno) == 0 && len(fs.unlinked) == 0 {
		return nil
	}
	// Deterministic order: by inode then block index.
	keys := make([]pageKey, 0, len(fs.pages))
	for k := range fs.pages {
		keys = append(keys, k)
		fs.dirtyIno[k.ino] = true
	}
	sortPageKeys(keys)
	inos := make([]uint64, 0, len(fs.dirtyIno))
	for ino := range fs.dirtyIno {
		inos = append(inos, ino)
	}
	sortUint64s(inos)
	fs.seq++
	var freed freeList
	for _, ino := range inos {
		n := 0
		for n < len(keys) && keys[n].ino == ino {
			n++
		}
		pages := keys[:n]
		keys = keys[n:]
		if err := fs.flushInodeLocked(ino, pages, freed.add); err != nil {
			return err
		}
	}
	fs.dirtyBytes = 0
	for _, ino := range fs.unlinked {
		if _, err := fs.log.AppendRecord(fs.svcID, encodeUnlinkRecord(ino)); err != nil {
			return err
		}
	}
	fs.unlinked = nil
	fs.stats.Flushes++
	return fs.deleteBlocks(freed)
}

// flushInodeLocked writes ino's dirty pages, buckets, map blocks and
// inode block, stamped with the flush's seq. Caller holds fs.mu.
func (fs *FS) flushInodeLocked(ino uint64, pages []pageKey, free func(blockPtr)) error {
	in, ok := fs.inodes[ino]
	if !ok {
		// Unlinked with dirty pages: nothing to persist.
		for _, k := range pages {
			delete(fs.pages, k)
		}
		delete(fs.dirtyIno, ino)
		return nil
	}
	in.gen = fs.seq
	nblocks := fs.blocks(in.size)
	for _, k := range pages {
		page := fs.pages[k]
		delete(fs.pages, k)
		if uint64(k.idx) >= nblocks {
			continue // the file shrank under this page
		}
		// Trim the tail block to the file size.
		dataLen := int64(fs.blockSize)
		if tail := in.size - int64(k.idx)*int64(fs.blockSize); tail < dataLen {
			dataLen = tail
		}
		p, err := fs.appendBlock(page[:dataLen], hint{kind: hintData, ino: ino, pos: uint64(k.idx), gen: in.gen})
		if err != nil {
			return err
		}
		old, err := in.tree.set(fs, uint64(k.idx), p)
		if err != nil {
			return err
		}
		if fs.cache != nil {
			// The page left fs.pages above and nothing else refers to
			// it, so the cache takes it as is: no copy.
			fs.cache.Put(p.addr, page[:dataLen])
		}
		free(old)
		fs.stats.BlocksOut++
	}
	if in.isDir() {
		if err := fs.flushBuckets(in, free); err != nil {
			return err
		}
	}
	err := in.tree.flush(func(level int, pos uint64, data []byte) (blockPtr, error) {
		fs.stats.MapBlocksOut++
		return fs.appendBlock(data, hint{kind: hintMap, ino: ino, level: uint8(level), pos: pos, gen: in.gen})
	}, free)
	if err != nil {
		return err
	}
	p, err := fs.appendBlock(in.encode(), hint{kind: hintInode, ino: ino, pos: ino, gen: in.gen})
	if err != nil {
		return err
	}
	old, err := fs.imap.set(fs, ino, p)
	if err != nil {
		return err
	}
	free(old)
	in.flushedAt = core.PosOf(p.addr)
	delete(fs.dirtyIno, ino)
	fs.stats.InodesOut++
	return nil
}

// appendBlock appends one block under hint h. Caller holds fs.mu.
func (fs *FS) appendBlock(data []byte, h hint) (blockPtr, error) {
	addr, err := fs.log.AppendBlock(fs.svcID, data, h.encode())
	if err != nil {
		return blockPtr{}, fmt.Errorf("flush block %+v: %w", h, err)
	}
	return blockPtr{addr: addr, len: uint32(len(data))}, nil
}

// Sync implements vfs.FileSystem: flush the page cache and the log.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return vfs.ErrClosed
	}
	err := fs.flushLocked()
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	return fs.log.Sync()
}

// Checkpoint flushes and writes Sting's checkpoint, bounding future
// recovery time: the inode map's dirty map blocks, then a checkpoint
// record holding the allocator and the inode map's root.
func (fs *FS) Checkpoint() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return vfs.ErrClosed
	}
	return fs.checkpointLocked()
}

// checkpointLocked holds fs.mu across the checkpoint write, so no flush
// can land between the inode map it captures and its record. Caller
// holds fs.mu.
func (fs *FS) checkpointLocked() error {
	if err := fs.flushLocked(); err != nil {
		return err
	}
	fs.seq++
	gen := fs.seq
	var freed freeList
	err := fs.imap.flush(func(level int, pos uint64, data []byte) (blockPtr, error) {
		fs.stats.MapBlocksOut++
		return fs.appendBlock(data, hint{kind: hintImap, level: uint8(level), pos: pos, gen: gen})
	}, freed.add)
	if err != nil {
		return err
	}
	fs.ckptSeq = gen
	e := wire.NewEncoder(32 + mapBlockSize)
	e.U64(fs.nextIno)
	e.U64(gen)
	fs.imap.encodeRoot(e)
	if _, err := fs.log.WriteCheckpoint(fs.svcID, e.Bytes()); err != nil {
		return err
	}
	fs.stats.Checkpoints++
	return fs.deleteBlocks(freed)
}

// Unmount implements vfs.FileSystem: flush, checkpoint, and close. The
// paper's MAB runs unmount "to ensure that the data written are
// eventually stored to disk" (§3.4).
func (fs *FS) Unmount() error {
	if err := fs.Checkpoint(); err != nil && !errors.Is(err, vfs.ErrClosed) {
		return err
	}
	fs.mu.Lock()
	fs.closed = true
	fs.mu.Unlock()
	return fs.log.Sync()
}

func sortUint64s(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func sortPageKeys(s []pageKey) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].ino != s[j].ino {
			return s[i].ino < s[j].ino
		}
		return s[i].idx < s[j].idx
	})
}
