package sting

import (
	"testing"

	"swarm/internal/vfs"
)

// Test helpers that read Sting's metadata under fs.mu.

func dataHint(ino, idx uint64) []byte {
	return hint{kind: hintData, ino: ino, pos: idx}.encode()
}

func inodeHint(ino uint64) []byte {
	return hint{kind: hintInode, ino: ino, pos: ino}.encode()
}

// inodeAt returns the loaded inode for path.
func inodeAt(t *testing.T, fs *FS, path string) *inode {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parts, err := vfs.SplitPath(path)
	if err != nil {
		t.Fatal(err)
	}
	in, err := fs.resolve(parts)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// ptrAt returns block idx's pointer in in's tree.
func ptrAt(t *testing.T, fs *FS, in *inode, idx uint64) blockPtr {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p, err := in.tree.get(fs, idx)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// imapPtr returns ino's inode-map slot.
func imapPtr(t *testing.T, fs *FS, ino uint64) blockPtr {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p, err := fs.imap.get(fs, ino)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
