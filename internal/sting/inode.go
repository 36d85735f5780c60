package sting

import (
	"fmt"
	"time"

	"swarm/internal/core"
	"swarm/internal/vfs"
	"swarm/internal/wire"
)

// RootIno is the root directory's inode number.
const RootIno uint64 = 1

// blockPtr locates one block in the log. A zero pointer is a hole.
type blockPtr struct {
	addr core.BlockAddr
	len  uint32
}

func (p blockPtr) isHole() bool { return p.addr.IsZero() && p.len == 0 }

// dirEnt is one directory entry. The child's mode is duplicated here so
// ReadDir doesn't have to load every child inode.
type dirEnt struct {
	ino  uint64
	mode vfs.FileMode
}

// inode is Sting's per-file metadata, stored as one log block holding
// the attributes and the root of a pointer tree (ptree.go), as in
// Sprite LFS: a file's tree maps block numbers to data blocks, a
// directory's maps bucket numbers to hashed entry buckets (dir.go).
// While a file has at most fanout blocks, or a directory's entries fit
// one bucket, everything stays inline and a flush writes one block.
// gen is the file system's seq at the inode's last flush; every block
// that flush writes carries it in its hint, which is how replay tells a
// relocated block from one whose flush never finished. flushedAt is
// where that flush put the inode (or, once loaded, where it was read):
// a relocated copy appended before it is not replayed onto it.
type inode struct {
	ino       uint64
	mode      vfs.FileMode
	size      int64
	mtime     time.Time
	nlink     uint32
	gen       uint64
	flushedAt core.Pos
	tree      ptree

	// Directories only: entry count, bucket count (0 while the
	// entries are inline) and the loaded buckets.
	nents   uint32
	nb      uint32
	buckets []*bucket
}

func newFileInode(ino uint64, now time.Time) *inode {
	return &inode{ino: ino, mode: vfs.ModeFile, mtime: now, nlink: 1}
}

func newDirInode(ino uint64, now time.Time) *inode {
	return &inode{ino: ino, mode: vfs.ModeDir, mtime: now, nlink: 2, buckets: []*bucket{newBucket()}}
}

func (in *inode) isDir() bool { return in.mode == vfs.ModeDir }

// encode serializes the inode for storage as a log block.
func (in *inode) encode() []byte {
	e := wire.NewEncoder(64 + mapBlockSize)
	e.U8(uint8(in.mode))
	e.U64(in.ino)
	e.U64(uint64(in.size))
	e.U64(uint64(in.mtime.UnixNano()))
	e.U32(in.nlink)
	e.U64(in.gen)
	if in.isDir() {
		e.U32(in.nents)
		e.U32(in.nb)
		if in.nb == 0 {
			in.buckets[0].encodeTo(e)
			return e.Bytes()
		}
	}
	in.tree.encodeRoot(e)
	return e.Bytes()
}

// decodeInode parses a serialized inode.
func decodeInode(p []byte) (*inode, error) {
	d := wire.NewDecoder(p)
	in := &inode{
		mode:  vfs.FileMode(d.U8()),
		ino:   d.U64(),
		size:  int64(d.U64()),
		mtime: time.Unix(0, int64(d.U64())),
		nlink: d.U32(),
		gen:   d.U64(),
	}
	var err error
	switch {
	case d.Err() != nil:
	case in.mode == vfs.ModeDir:
		in.nents, in.nb = d.U32(), d.U32()
		if in.nb&(in.nb-1) != 0 || in.nb > maxBuckets {
			return nil, fmt.Errorf("sting: directory with %d buckets", in.nb)
		}
		if in.nb == 0 {
			var b *bucket
			b, err = decodeBucketFrom(d)
			in.buckets = []*bucket{b}
		} else {
			in.buckets = make([]*bucket, in.nb)
			in.tree, err = decodeRoot(d)
		}
	case in.mode == vfs.ModeFile:
		in.tree, err = decodeRoot(d)
	default:
		return nil, fmt.Errorf("sting: inode mode %d", in.mode)
	}
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("sting: bad inode: %w", err)
	}
	return in, nil
}

// ----------------------------------------------------------------- hints
//
// Every block Sting appends carries a hint so the cleaner (and crash
// replay) can find the owning metadata: "the creation record for a file
// block might contain the inode number of the block's file, and its
// position within the file" (§2.1.4). A hint names the block's slot in
// a pointer tree, (level, pos) as in ptree.go, plus the owner's gen at
// the flush that wrote it.

const (
	hintInode = 1 // an inode: leaf ino of the inode map
	hintData  = 2 // a file data block or directory bucket: leaf pos of ino's tree
	hintMap   = 3 // a map block of ino's tree
	hintImap  = 4 // a map block of the inode map
)

type hint struct {
	kind  uint8
	ino   uint64
	level uint8
	pos   uint64
	gen   uint64
}

func (h hint) encode() []byte {
	e := wire.NewEncoder(26)
	e.U8(h.kind)
	e.U64(h.ino)
	e.U8(h.level)
	e.U64(h.pos)
	e.U64(h.gen)
	return e.Bytes()
}

func decodeHint(p []byte) (hint, error) {
	d := wire.NewDecoder(p)
	h := hint{kind: d.U8(), ino: d.U64(), level: d.U8(), pos: d.U64(), gen: d.U64()}
	if err := d.Err(); err != nil {
		return hint{}, fmt.Errorf("sting: bad hint: %w", err)
	}
	leaf := h.kind == hintInode || h.kind == hintData
	if h.kind < hintInode || h.kind > hintImap || leaf != (h.level == 0) || int(h.level) > maxDepth {
		return hint{}, fmt.Errorf("sting: bad hint kind %d level %d", h.kind, h.level)
	}
	return h, nil
}

// ----------------------------------------------------- service records

// Sting's explicit service records. Everything else a crash must replay
// is carried by the log layer's automatic creation records (new inode
// versions, new data and map blocks, the cleaner's copies).
const (
	recUnlinkInode = 1 // an inode was removed
	recVoidCopy    = 2 // a cleaner copy of a block its owner had already replaced
)

// record is a decoded service record: ino for an unlink, addr for a void.
type record struct {
	kind uint8
	ino  uint64
	addr core.BlockAddr
}

func encodeUnlinkRecord(ino uint64) []byte {
	e := wire.NewEncoder(9)
	e.U8(recUnlinkInode)
	e.U64(ino)
	return e.Bytes()
}

func encodeVoidRecord(addr core.BlockAddr) []byte {
	e := wire.NewEncoder(13)
	e.U8(recVoidCopy)
	e.U64(uint64(addr.FID))
	e.U32(addr.Off)
	return e.Bytes()
}

func decodeRecord(p []byte) (record, error) {
	d := wire.NewDecoder(p)
	r := record{kind: d.U8()}
	switch r.kind {
	case recUnlinkInode:
		r.ino = d.U64()
	case recVoidCopy:
		r.addr = core.BlockAddr{FID: wire.FID(d.U64()), Off: d.U32()}
	default:
		if d.Err() == nil {
			return record{}, fmt.Errorf("sting: unknown record kind %d", r.kind)
		}
	}
	if err := d.Err(); err != nil {
		return record{}, fmt.Errorf("sting: bad record: %w", err)
	}
	return r, nil
}
