package sting

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"swarm/internal/cleaner"
	"swarm/internal/core"
	"swarm/internal/vfs"
)

// These tests cover metadata that outgrows one block: files whose
// pointer trees span several map-block levels, directories hashed into
// buckets, and an inode map written as blocks.

func writeAt(t *testing.T, f vfs.File, p []byte, off int64) {
	t.Helper()
	if n, err := f.WriteAt(p, off); err != nil || n != len(p) {
		t.Fatalf("WriteAt(%d bytes at %d) = (%d,%v)", len(p), off, n, err)
	}
}

func readAt(t *testing.T, f vfs.File, n int, off int64) []byte {
	t.Helper()
	p := make([]byte, n)
	if got, err := f.ReadAt(p, off); err != nil || got != n {
		t.Fatalf("ReadAt(%d bytes at %d) = (%d,%v)", n, off, got, err)
	}
	return p
}

// A 1 GB sparse file: with 1 KB blocks its pointer table would be 16 MB,
// a thousand times the 16 KB fragment.
func TestSparseGigabyteFileSurvivesCrash(t *testing.T) {
	e := newEnv(t, 3)
	f, err := e.fs.Create("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{0, 300 << 20, 1<<30 - 4096}
	for i, off := range offs {
		writeAt(t, f, bytes.Repeat([]byte{byte(i + 1)}, 4096), off)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	e.crash(t)

	f, err = e.fs.Open("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if size, _ := f.Size(); size != 1<<30 {
		t.Fatalf("size after recovery = %d", size)
	}
	for i, off := range offs {
		if got := readAt(t, f, 4096, off); !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 4096)) {
			t.Fatalf("block at %d lost", off)
		}
	}
	if got := readAt(t, f, 4096, 700<<20); !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("hole reads non-zero")
	}
	// The big file must not wedge the rest of the file system.
	if err := vfs.WriteFile(e.fs, "/other", []byte("still works")); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatalf("sync after the big file: %v", err)
	}
	if err := e.fs.Unmount(); err != nil {
		t.Fatalf("unmount after the big file: %v", err)
	}
}

// 200k inodes in 1 MB fragments: an inode map of 24 B per inode would
// be a 4.8 MB checkpoint, and /big's 50k entries take 1.2 MB.
func TestManyFilesSurviveCheckpointAndCrash(t *testing.T) {
	const files, dirs, big = 200_000, 20, 50_000
	e := newEnvSized(t, 3, 1<<20, 256<<20)
	name := func(i int) string {
		if i < big {
			return fmt.Sprintf("/big/file-%06d", i)
		}
		return fmt.Sprintf("/d%02d/f%06d", i%dirs, i)
	}
	if err := e.fs.Mkdir("/big"); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dirs; d++ {
		if err := e.fs.Mkdir(fmt.Sprintf("/d%02d", d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < files; i++ {
		f, err := e.fs.Create(name(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			writeAt(t, f, []byte(name(i)), 0)
		}
	}
	if err := e.fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint changes recovery must roll forward.
	if err := e.fs.Unlink(name(7)); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(e.fs, "/big/late", []byte("late")); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	e.crash(t)

	ents, err := e.fs.ReadDir("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != big { // one unlinked, one added
		t.Fatalf("/big has %d entries, want %d", len(ents), big)
	}
	for i := 0; i < files; i++ {
		info, err := e.fs.Stat(name(i))
		if i == 7 {
			if !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("unlinked %s: %v", name(i), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name(i), err)
		}
		if i%1000 == 0 {
			got, err := vfs.ReadFile(e.fs, name(i))
			if err != nil || string(got) != name(i) {
				t.Fatalf("%s = (%q,%v)", name(i), got, err)
			}
		} else if info.Size != 0 {
			t.Fatalf("%s size %d", name(i), info.Size)
		}
	}
	if got, err := vfs.ReadFile(e.fs, "/big/late"); err != nil || string(got) != "late" {
		t.Fatalf("/big/late = (%q,%v)", got, err)
	}
	// The checkpoint is bounded by the inode map's root, not its size.
	e.fs.mu.Lock()
	depth := e.fs.imap.depth
	e.fs.mu.Unlock()
	if depth < 2 {
		t.Fatalf("inode map depth %d for %d inodes", depth, files)
	}
}

// The cleaner moves map blocks as well as data blocks; every byte reads
// back after the pass and after a crash.
func TestCleanerRelocatesMapBlocks(t *testing.T) {
	e := newEnv(t, 3)
	const nblocks = 5000 // two map-block levels at 64 pointers each
	content := func(idx, round int) []byte {
		return bytes.Repeat([]byte{byte(idx*7 + round)}, testBlockSize)
	}
	f, err := e.fs.Create("/tree")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for idx := 0; idx < nblocks; idx += 1 + round*40 {
			writeAt(t, f, content(idx, round), int64(idx)*testBlockSize)
		}
		if err := e.fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]byte, nblocks)
	for round := 0; round < 3; round++ {
		for idx := 0; idx < nblocks; idx += 1 + round*40 {
			want[idx] = content(idx, round)
		}
	}
	if err := e.fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	in := inodeAt(t, e.fs, "/tree")
	if in.tree.depth != 2 {
		t.Fatalf("tree depth %d", in.tree.depth)
	}
	mapBefore := in.tree.root.ptrs[0]
	dataBefore := ptrAt(t, e.fs, in, 1)

	c := cleaner.New(e.log, e.reg, cleaner.Config{UtilizationThreshold: 1, MaxStripesPerPass: 1 << 20})
	if _, err := c.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().BlocksMoved == 0 {
		t.Fatal("cleaner moved nothing")
	}
	in = inodeAt(t, e.fs, "/tree")
	if in.tree.root.ptrs[0] == mapBefore {
		t.Fatal("top map block not relocated")
	}
	if ptrAt(t, e.fs, in, 1) == dataBefore {
		t.Fatal("data block not relocated")
	}
	check := func(stage string) {
		t.Helper()
		f, err := e.fs.Open("/tree")
		if err != nil {
			t.Fatal(err)
		}
		for idx, w := range want {
			if got := readAt(t, f, testBlockSize, int64(idx)*testBlockSize); !bytes.Equal(got, w) {
				t.Fatalf("%s: block %d corrupted", stage, idx)
			}
		}
	}
	check("after cleaning")
	e.crash(t)
	check("after cleaning and crash")
}

// A crash between a checkpoint and Sting's next flush must keep the
// cleaner's moves even though their records precede the checkpoint.
func TestMoveBeforeCheckpointSurvivesCrash(t *testing.T) {
	e := newEnv(t, 3)
	data := bytes.Repeat([]byte("moved"), 2*testBlockSize/5)
	if err := vfs.WriteFile(e.fs, "/f", data); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	in := inodeAt(t, e.fs, "/f")
	old := ptrAt(t, e.fs, in, 0)
	// Copy block 0 the way the cleaner does, checkpoint before the move
	// is reported, then report it.
	payload, err := e.log.Read(old.addr, 0, old.len)
	if err != nil {
		t.Fatal(err)
	}
	h := dataHint(in.ino, 0)
	newAddr, err := e.log.AppendBlock(e.fs.ID(), payload, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.BlockMoved(old.addr, newAddr, old.len, h); err != nil {
		t.Fatal(err)
	}
	if err := e.log.Sync(); err != nil {
		t.Fatal(err)
	}
	e.crash(t)
	if got := ptrAt(t, e.fs, inodeAt(t, e.fs, "/f"), 0).addr; got != newAddr {
		t.Fatalf("block 0 at %v after crash, want the moved copy %v", got, newAddr)
	}
	if got, err := vfs.ReadFile(e.fs, "/f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("/f after crash = (%d bytes, %v)", len(got), err)
	}
}

func TestFullBlockOverwriteSkipsFault(t *testing.T) {
	e := newEnv(t, 3)
	f, err := e.fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	writeAt(t, f, bytes.Repeat([]byte{1}, 64*testBlockSize), 0)
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := e.log.EngineStats().Reads
	for idx := 0; idx < 64; idx++ {
		writeAt(t, f, bytes.Repeat([]byte{2}, testBlockSize), int64(idx)*testBlockSize)
	}
	if d := e.log.EngineStats().Reads - before; d != 0 {
		t.Fatalf("64 whole-block overwrites issued %d reads", d)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readAt(t, f, 64*testBlockSize, 0); !bytes.Equal(got, bytes.Repeat([]byte{2}, 64*testBlockSize)) {
		t.Fatal("overwritten contents wrong")
	}
}

func TestPartialOverwriteFaults(t *testing.T) {
	e := newEnv(t, 3)
	f, err := e.fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	const size = 3*testBlockSize + 476 // short tail block
	old := bytes.Repeat([]byte{1}, size)
	writeAt(t, f, old, 0)
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := e.log.EngineStats().Reads
	writeAt(t, f, []byte("mid"), testBlockSize+100)   // partial, inside block 1
	writeAt(t, f, []byte("tail"), 3*testBlockSize+10) // partial, inside the short tail
	if d := e.log.EngineStats().Reads - before; d != 2 {
		t.Fatalf("two partial overwrites issued %d reads, want 2", d)
	}
	want := append([]byte(nil), old...)
	copy(want[testBlockSize+100:], "mid")
	copy(want[3*testBlockSize+10:], "tail")
	for stage := 0; stage < 2; stage++ {
		if got := readAt(t, f, size, 0); !bytes.Equal(got, want) {
			t.Fatalf("stage %d: partial overwrites lost neighbouring bytes", stage)
		}
		if size, _ := f.Size(); size != int64(len(want)) {
			t.Fatalf("size %d", size)
		}
		if err := e.fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOffsetsPastTheBlockIndexRejected(t *testing.T) {
	e := newEnv(t, 2)
	f, err := e.fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(maxIndex) * testBlockSize
	if _, err := f.WriteAt([]byte("x"), limit); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("write at the limit: %v", err)
	}
	if _, err := f.WriteAt([]byte("xy"), limit-1); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("write across the limit: %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 1<<63-1); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("write at MaxInt64: %v", err)
	}
	if err := f.Truncate(limit + 1); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("truncate past the limit: %v", err)
	}
	// The last addressable byte works, and costs a few map blocks.
	writeAt(t, f, []byte("z"), limit-1)
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readAt(t, f, 1, limit-1); got[0] != 'z' {
		t.Fatalf("last byte = %q", got)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if in := inodeAt(t, e.fs, "/f"); in.tree.depth != 0 || !in.tree.root.empty() {
		t.Fatalf("truncate to 0 left depth %d", in.tree.depth)
	}
}

// A Sync after scattered overwrites ships the map blocks it dirtied,
// not the file's whole pointer table.
func TestSyncShipsOnlyDirtyMapBlocks(t *testing.T) {
	e := newEnv(t, 3)
	const nblocks = 64 * 64 // 64 leaves under one inline root
	f, err := e.fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	writeAt(t, f, make([]byte, nblocks*testBlockSize), 0)
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := e.fs.Stats()
	for _, idx := range []int{3, 700, 701, 4000} {
		writeAt(t, f, bytes.Repeat([]byte{9}, testBlockSize), int64(idx)*testBlockSize)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	after := e.fs.Stats()
	if d := after.MapBlocksOut - before.MapBlocksOut; d != 3 {
		t.Fatalf("sync wrote %d map blocks, want 3 (leaves of blocks 3, 700/701, 4000)", d)
	}
	if d := after.InodesOut - before.InodesOut; d != 1 {
		t.Fatalf("sync wrote %d inodes", d)
	}
	in := inodeAt(t, e.fs, "/f")
	p := imapPtr(t, e.fs, in.ino)
	if p.len > 64+mapBlockSize {
		t.Fatalf("inode block of %d bytes", p.len)
	}
}

// A small file or directory still costs one metadata block per flush.
func TestSmallFileIsOneMetadataBlock(t *testing.T) {
	e := newEnv(t, 2)
	if err := e.fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := e.fs.Stats()
	if err := vfs.WriteFile(e.fs, "/d/small", make([]byte, 40*testBlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	after := e.fs.Stats()
	if d := after.MapBlocksOut - before.MapBlocksOut; d != 0 {
		t.Fatalf("small file flush wrote %d map blocks", d)
	}
	if d := after.InodesOut - before.InodesOut; d != 2 { // the file and /d
		t.Fatalf("small file flush wrote %d inodes, want 2", d)
	}
}

func TestNodeAndBucketCodecs(t *testing.T) {
	n := &node{}
	n.ptrs[5] = blockPtr{addr: core.BlockAddr{Off: 9}, len: 3}
	got, err := decodeNode(n.encode())
	if err != nil || got.ptrs != n.ptrs {
		t.Fatalf("node roundtrip = (%v,%v)", got, err)
	}
	if _, err := decodeNode(make([]byte, mapBlockSize+1)); err == nil {
		t.Fatal("oversized map block decoded")
	}
	b := newBucket()
	b.put("x", dirEnt{ino: 4, mode: vfs.ModeDir})
	b.put("longer-name", dirEnt{ino: 5, mode: vfs.ModeFile})
	if _, err := decodeBucket([]byte{200, 0, 0, 0, 1}); err == nil {
		t.Fatal("bucket claiming 200 entries in 1 byte decoded")
	}
	dir := newDirInode(3, time.Unix(0, 0))
	dir.buckets[0] = b
	dir.nents = 2
	back, err := decodeInode(dir.encode())
	if err != nil || back.buckets[0].bytes != b.bytes || back.buckets[0].ents["longer-name"].ino != 5 {
		t.Fatalf("bucket roundtrip = (%+v,%v)", back, err)
	}
}

// Blocks of a flush cut short before its inode record are ignored by
// recovery: the file reads as of the last complete flush.
func TestUnfinishedFlushIsIgnored(t *testing.T) {
	e := newEnv(t, 3)
	old := bytes.Repeat([]byte{1}, 2*testBlockSize)
	if err := vfs.WriteFile(e.fs, "/f", old); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	in := inodeAt(t, e.fs, "/f")
	// What the next flush would append first: new data for block 1.
	h := hint{kind: hintData, ino: in.ino, pos: 1, gen: e.fs.seq + 1}
	if _, err := e.log.AppendBlock(e.fs.ID(), bytes.Repeat([]byte{2}, testBlockSize), h.encode()); err != nil {
		t.Fatal(err)
	}
	if err := e.log.Sync(); err != nil {
		t.Fatal(err)
	}
	e.crash(t)
	if got, err := vfs.ReadFile(e.fs, "/f"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("/f after an unfinished flush = (%v, %v)", got[testBlockSize:testBlockSize+4], err)
	}
}

// A copy the cleaner made of a block that was overwritten before the
// move was reported must not come back after a crash.
func TestStaleMoveIsVoided(t *testing.T) {
	e := newEnv(t, 3)
	if err := vfs.WriteFile(e.fs, "/f", bytes.Repeat([]byte{1}, testBlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	in := inodeAt(t, e.fs, "/f")
	old := ptrAt(t, e.fs, in, 0)
	payload, err := e.log.Read(old.addr, 0, old.len)
	if err != nil {
		t.Fatal(err)
	}
	// The cleaner found block 0 live; the file overwrites it; then the
	// cleaner appends its copy and reports the move.
	newer := bytes.Repeat([]byte{2}, testBlockSize)
	if err := vfs.WriteFile(e.fs, "/f", newer); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	h := dataHint(in.ino, 0)
	copyAddr, err := e.log.AppendBlock(e.fs.ID(), payload, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.fs.BlockMoved(old.addr, copyAddr, old.len, h); err != nil {
		t.Fatal(err)
	}
	if err := e.log.Sync(); err != nil {
		t.Fatal(err)
	}
	e.crash(t)
	if got, err := vfs.ReadFile(e.fs, "/f"); err != nil || !bytes.Equal(got, newer) {
		t.Fatalf("/f after crash = (%v, %v), want the overwrite", got[:4], err)
	}
}

// An unlink that no Sync covered must not reach the log ahead of the
// directory change: after a crash the name and the file are both there.
func TestUnsyncedUnlinkLeavesNoDanglingName(t *testing.T) {
	e := newEnv(t, 3)
	if err := vfs.WriteFile(e.fs, "/f", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	// Ship whatever the unlink appended, without a Sting flush.
	if err := e.log.Sync(); err != nil {
		t.Fatal(err)
	}
	e.crash(t)
	if got, err := vfs.ReadFile(e.fs, "/f"); err != nil || string(got) != "kept" {
		t.Fatalf("/f after crash = (%q, %v)", got, err)
	}
}
