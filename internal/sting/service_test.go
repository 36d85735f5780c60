package sting

import (
	"bytes"
	"testing"

	"swarm/internal/core"
	"swarm/internal/vfs"
)

// These tests exercise Sting's service-facing surface directly: block
// liveness answers for the cleaner, move notifications, and checkpoint
// demands.

func TestBlockLiveAnswers(t *testing.T) {
	e := newEnv(t, 2)
	defer e.fs.Unmount()
	if err := vfs.WriteFile(e.fs, "/f", bytes.Repeat([]byte{1}, 3*testBlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Find the file's inode and block addresses.
	in := inodeAt(t, e.fs, "/f")
	ino := in.ino
	dataAddr := ptrAt(t, e.fs, in, 1).addr
	inodeAddr := imapPtr(t, e.fs, ino).addr

	// Live data block and live inode block answer true.
	if !e.fs.BlockLive(dataAddr, dataHint(ino, 1)) {
		t.Fatal("live data block reported dead")
	}
	if !e.fs.BlockLive(inodeAddr, inodeHint(ino)) {
		t.Fatal("live inode block reported dead")
	}
	// A stale address answers false.
	stale := core.BlockAddr{FID: dataAddr.FID, Off: dataAddr.Off + 1}
	if e.fs.BlockLive(stale, dataHint(ino, 1)) {
		t.Fatal("stale data address reported live")
	}
	// Unparseable hints answer true (safe default).
	if !e.fs.BlockLive(dataAddr, []byte{0xFF}) {
		t.Fatal("garbage hint reported dead")
	}
	// After unlink, everything is dead.
	if err := e.fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if e.fs.BlockLive(dataAddr, dataHint(ino, 1)) {
		t.Fatal("unlinked file's data reported live")
	}
	if e.fs.BlockLive(inodeAddr, inodeHint(ino)) {
		t.Fatal("unlinked file's inode reported live")
	}
}

func TestBlockMovedRebindsMetadata(t *testing.T) {
	e := newEnv(t, 2)
	defer e.fs.Unmount()
	content := bytes.Repeat([]byte{7}, 2*testBlockSize)
	if err := vfs.WriteFile(e.fs, "/f", content); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	in := inodeAt(t, e.fs, "/f")
	ino := in.ino
	old := ptrAt(t, e.fs, in, 0)

	// Pretend the cleaner moved block 0.
	newAddr := core.BlockAddr{FID: old.addr.FID, Off: old.addr.Off + 12345}
	if err := e.fs.BlockMoved(old.addr, newAddr, old.len, dataHint(ino, 0)); err != nil {
		t.Fatal(err)
	}
	got := ptrAt(t, e.fs, in, 0).addr
	e.fs.mu.Lock()
	dirty := e.fs.dirtyIno[ino]
	e.fs.mu.Unlock()
	if got != newAddr {
		t.Fatalf("block not rebound: %v", got)
	}
	if !dirty {
		t.Fatal("inode not marked dirty after move")
	}
	// Moving with a stale old address is a no-op.
	if err := e.fs.BlockMoved(old.addr, core.BlockAddr{}, old.len, dataHint(ino, 0)); err != nil {
		t.Fatal(err)
	}
	still := ptrAt(t, e.fs, in, 0).addr
	if still != newAddr {
		t.Fatal("stale move overwrote current binding")
	}
	// Moving an inode block rebinds the imap.
	oldIno := imapPtr(t, e.fs, ino)
	newInoAddr := core.BlockAddr{FID: oldIno.addr.FID, Off: oldIno.addr.Off + 7}
	if err := e.fs.BlockMoved(oldIno.addr, newInoAddr, oldIno.len, inodeHint(ino)); err != nil {
		t.Fatal(err)
	}
	got2 := imapPtr(t, e.fs, ino).addr
	if got2 != newInoAddr {
		t.Fatalf("imap not rebound: %v", got2)
	}
}

func TestCheckpointDemandWritesCheckpoint(t *testing.T) {
	e := newEnv(t, 2)
	if err := vfs.WriteFile(e.fs, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.log.Checkpoint(e.fs.ID()); ok {
		t.Fatal("checkpoint exists before demand")
	}
	if err := e.fs.CheckpointDemand(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.log.Checkpoint(e.fs.ID()); !ok {
		t.Fatal("no checkpoint after demand")
	}
	// Demands after unmount are quietly ignored (the service is gone).
	if err := e.fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.CheckpointDemand(); err != nil {
		t.Fatalf("demand after unmount: %v", err)
	}
}

func TestReplayRejectsGarbageRecords(t *testing.T) {
	e := newEnv(t, 2)
	defer e.fs.Unmount()
	if err := e.fs.Replay(core.ReplayEntry{Kind: core.EntryRecord, Payload: []byte{99, 0, 0, 0, 0, 0, 0, 0, 0}}); err == nil {
		t.Fatal("garbage unlink record accepted")
	}
	if err := e.fs.Replay(core.ReplayEntry{Kind: core.EntryCreate, Payload: []byte{1}}); err == nil {
		t.Fatal("garbage create record accepted")
	}
	// Delete records are ignored without error.
	if err := e.fs.Replay(core.ReplayEntry{Kind: core.EntryDelete, Payload: nil}); err != nil {
		t.Fatal(err)
	}
}
