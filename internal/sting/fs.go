// Package sting implements the Sting file system of §3.1: a local
// (single-client) file system providing the standard UNIX interface, with
// its data stored in Swarm instead of on a local disk. Sting borrows from
// Sprite LFS but is smaller and simpler, because log management, storage,
// cleaning, and reconstruction are all handled by the Swarm layers below.
//
// Structure: an in-memory inode map (ino → inode-block address) that is
// checkpointed into the log; inodes stored as variable-size log blocks;
// file data in fixed-size blocks with a write-back page cache (the
// prototype ran on a Linux "modified to support a write-back page cache",
// §3.3); and crash recovery by replaying the log layer's creation records
// plus Sting's own unlink records.
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
	BytesWritten int64 // application bytes accepted by WriteAt
	BytesRead    int64
	Checkpoints  int64
}

type imapEntry struct {
	addr core.BlockAddr
	size uint32
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
	imap       map[uint64]imapEntry
	nextIno    uint64
	inodes     map[uint64]*inode // cache of loaded inodes
	dirtyIno   map[uint64]bool
	pages      map[pageKey][]byte // dirty data pages (write-back cache)
	dirtyBytes int64
	pending    map[uint64][]patch // replay patches awaiting their inode
	stats      Stats
}

type patch struct {
	idx  uint32
	addr core.BlockAddr
	len  uint32
	size int64
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
	if cfg.BlockSize > log.MaxBlockSize() {
		return nil, fmt.Errorf("sting: block size %d exceeds log max %d", cfg.BlockSize, log.MaxBlockSize())
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
		imap:      make(map[uint64]imapEntry),
		nextIno:   RootIno + 1,
		inodes:    make(map[uint64]*inode),
		dirtyIno:  make(map[uint64]bool),
		pages:     make(map[pageKey][]byte),
		pending:   make(map[uint64][]patch),
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
	if _, ok := fs.imap[RootIno]; !ok {
		if _, ok := fs.inodes[RootIno]; !ok {
			fs.inodes[RootIno] = newDirInode(RootIno, fs.now())
			fs.dirtyIno[RootIno] = true
		}
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
	ent, ok := fs.imap[ino]
	if !ok {
		return nil, fmt.Errorf("%w: inode %d", vfs.ErrNotExist, ino)
	}
	data, err := fs.log.Read(ent.addr, 0, ent.size)
	if err != nil {
		return nil, fmt.Errorf("read inode %d: %w", ino, err)
	}
	in, err := decodeInode(data)
	if err != nil {
		return nil, err
	}
	fs.inodes[ino] = in
	return in, nil
}

func (fs *FS) markDirty(in *inode) {
	in.mtime = fs.now()
	fs.dirtyIno[in.ino] = true
}

func (fs *FS) allocIno() uint64 {
	ino := fs.nextIno
	fs.nextIno++
	return ino
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
		ent, ok := in.entries[name]
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

// flushLocked writes every dirty page and inode to the log. Data blocks
// go first so a flushed inode always references flushed blocks; within a
// crash window, later creation records supersede earlier state exactly as
// in the write path. Caller holds fs.mu.
func (fs *FS) flushLocked() error {
	if len(fs.pages) == 0 && len(fs.dirtyIno) == 0 {
		return nil
	}
	// Deterministic order: by inode then block index.
	keys := make([]pageKey, 0, len(fs.pages))
	for k := range fs.pages {
		keys = append(keys, k)
	}
	sortPageKeys(keys)
	for _, k := range keys {
		page := fs.pages[k]
		in, err := fs.loadInode(k.ino)
		if err != nil {
			// Inode vanished (unlinked with dirty pages): drop them.
			if errors.Is(err, vfs.ErrNotExist) {
				delete(fs.pages, k)
				continue
			}
			return err
		}
		if int(k.idx) >= len(in.blocks) {
			// The file shrank under this page; nothing to persist.
			delete(fs.pages, k)
			continue
		}
		// Trim the tail block to the file size.
		dataLen := fs.blockSize
		if tail := in.size - int64(k.idx)*int64(fs.blockSize); tail < int64(dataLen) {
			dataLen = int(tail)
		}
		if dataLen <= 0 {
			delete(fs.pages, k)
			continue
		}
		hint := encodeDataHint(k.ino, k.idx, in.size)
		addr, err := fs.log.AppendBlock(fs.svcID, page[:dataLen], hint)
		if err != nil {
			return fmt.Errorf("flush data block %d/%d: %w", k.ino, k.idx, err)
		}
		old := in.blocks[k.idx]
		in.blocks[k.idx] = blockPtr{addr: addr, len: uint32(dataLen)}
		fs.dirtyIno[k.ino] = true
		if fs.cache != nil {
			fs.cache.Put(addr, page[:dataLen])
			if !old.isHole() {
				fs.cache.Invalidate(old.addr)
			}
		}
		if !old.isHole() {
			if err := fs.log.DeleteBlock(old.addr, old.len, fs.svcID); err != nil {
				return err
			}
		}
		delete(fs.pages, k)
		fs.stats.BlocksOut++
	}
	fs.dirtyBytes = 0

	// Inodes, in ascending ino order.
	inos := make([]uint64, 0, len(fs.dirtyIno))
	for ino := range fs.dirtyIno {
		inos = append(inos, ino)
	}
	sortUint64s(inos)
	for _, ino := range inos {
		in, ok := fs.inodes[ino]
		if !ok {
			delete(fs.dirtyIno, ino)
			continue
		}
		buf := in.encode()
		addr, err := fs.log.AppendBlock(fs.svcID, buf, encodeInodeHint(ino))
		if err != nil {
			return fmt.Errorf("flush inode %d: %w", ino, err)
		}
		if old, ok := fs.imap[ino]; ok {
			if err := fs.log.DeleteBlock(old.addr, old.size, fs.svcID); err != nil {
				return err
			}
			if fs.cache != nil {
				fs.cache.Invalidate(old.addr)
			}
		}
		fs.imap[ino] = imapEntry{addr: addr, size: uint32(len(buf))}
		delete(fs.dirtyIno, ino)
		fs.stats.InodesOut++
	}
	fs.stats.Flushes++
	return nil
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

// Checkpoint flushes and writes Sting's checkpoint (the inode map and
// allocator), bounding future recovery time.
func (fs *FS) Checkpoint() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return vfs.ErrClosed
	}
	if err := fs.flushLocked(); err != nil {
		fs.mu.Unlock()
		return err
	}
	payload := fs.encodeCheckpointLocked()
	fs.stats.Checkpoints++
	fs.mu.Unlock()
	_, err := fs.log.WriteCheckpoint(fs.svcID, payload)
	return err
}

func (fs *FS) encodeCheckpointLocked() []byte {
	e := wire.NewEncoder(16 + len(fs.imap)*24)
	e.U64(fs.nextIno)
	e.U32(uint32(len(fs.imap)))
	inos := make([]uint64, 0, len(fs.imap))
	for ino := range fs.imap {
		inos = append(inos, ino)
	}
	sortUint64s(inos)
	for _, ino := range inos {
		ent := fs.imap[ino]
		e.U64(ino)
		e.U64(uint64(ent.addr.FID))
		e.U32(ent.addr.Off)
		e.U32(ent.size)
	}
	return e.Bytes()
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
