package sting

import (
	"bytes"
	"testing"
	"time"

	"swarm/internal/core"
	"swarm/internal/vfs"
	"swarm/internal/wire"
)

func FuzzDecodeInode(f *testing.F) {
	in := newFileInode(7, time.Unix(100, 0))
	in.size = 4096
	in.tree.root.ptrs[0] = blockPtr{len: 4096}
	f.Add(in.encode())
	dir := newDirInode(8, time.Unix(100, 0))
	dir.buckets[0].put("name", dirEnt{ino: 9, mode: vfs.ModeFile})
	f.Add(dir.encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeInode(data)
		if err != nil {
			return
		}
		// Re-encoding a decoded inode must be decodable again.
		if _, err := decodeInode(got.encode()); err != nil {
			t.Fatalf("re-encode not decodable: %v", err)
		}
	})
}

// FuzzDecodeMapBlock covers file, directory and inode-map map blocks,
// which share one codec.
func FuzzDecodeMapBlock(f *testing.F) {
	n := &node{}
	n.ptrs[3] = blockPtr{addr: core.BlockAddr{FID: wire.MakeFID(1, 2), Off: 40}, len: 4096}
	f.Add(n.encode())
	f.Add(make([]byte, mapBlockSize-1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeNode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.encode(), data) {
			t.Fatal("map block does not re-encode to its input")
		}
	})
}

func FuzzDecodeBucket(f *testing.F) {
	b := newBucket()
	b.put("alpha", dirEnt{ino: 3, mode: vfs.ModeFile})
	b.put("beta", dirEnt{ino: 4, mode: vfs.ModeDir})
	e := wire.NewEncoder(b.bytes)
	b.encodeTo(e)
	f.Add(e.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeBucket(data)
		if err != nil {
			return
		}
		e := wire.NewEncoder(got.bytes)
		got.encodeTo(e)
		if e.Len() != got.bytes {
			t.Fatalf("bucket encodes to %d bytes, accounted %d", e.Len(), got.bytes)
		}
		if _, err := decodeBucket(e.Bytes()); err != nil {
			t.Fatalf("re-encode not decodable: %v", err)
		}
	})
}

// FuzzRestoreCheckpoint covers the checkpoint payload: the allocator and
// the inode map's root.
func FuzzRestoreCheckpoint(f *testing.F) {
	e := wire.NewEncoder(64)
	e.U64(9)
	e.U64(2)
	t0 := ptree{depth: 1}
	t0.root.ptrs[0] = blockPtr{addr: core.BlockAddr{FID: wire.MakeFID(1, 3)}, len: mapBlockSize}
	t0.encodeRoot(e)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := &FS{}
		if err := fs.RestoreCheckpoint(data); err != nil {
			return
		}
		if fs.imap.depth > maxDepth {
			t.Fatalf("restored depth %d", fs.imap.depth)
		}
	})
}

func FuzzDecodeHint(f *testing.F) {
	f.Add(hint{kind: hintInode, ino: 1, pos: 1, gen: 1}.encode())
	f.Add(hint{kind: hintData, ino: 2, pos: 3, gen: 4}.encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := decodeHint(data); err == nil && !bytes.Equal(h.encode(), data[:26]) {
			t.Fatal("hint does not re-encode to its input")
		}
		_, _ = decodeRecord(data)
	})
}
