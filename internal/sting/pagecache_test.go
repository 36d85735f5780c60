package sting

import (
	"bytes"
	"testing"

	"swarm/internal/vfs"
)

// A flush hands each written page to the block cache, which keeps it
// without a copy. An overwrite of the same block after the flush must
// land in a new page: the file reads the new bytes, and the cache entry
// of the old address either still holds the old bytes or is gone.
func TestFlushedPageOwnedByCache(t *testing.T) {
	e := newEnvSized(t, 3, testFragSize, 4<<20)
	old := append(bytes.Repeat([]byte{0xA1}, testBlockSize), bytes.Repeat([]byte{0xA2}, testBlockSize)...)
	if err := vfs.WriteFile(e.fs, "/f", old); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	in := inodeAt(t, e.fs, "/f")
	old0, old1 := ptrAt(t, e.fs, in, 0), ptrAt(t, e.fs, in, 1)

	// Overwrite block 0 whole and patch block 1 (faulted in from the
	// cache), then flush again.
	f, err := e.fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	whole := bytes.Repeat([]byte{0xB1}, testBlockSize)
	if _, err := f.WriteAt(whole, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("patch"), testBlockSize+10); err != nil {
		t.Fatal(err)
	}
	checkOld := func(stage string) {
		t.Helper()
		for i, p := range []blockPtr{old0, old1} {
			data, err := e.fs.cache.ReadBlock(p.addr, p.len, 0, p.len)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, old[i*testBlockSize:(i+1)*testBlockSize]) {
				t.Fatalf("%s: block %d's old address reads changed bytes", stage, i)
			}
		}
	}
	// The dirty pages are new pages: the cached old blocks are intact.
	checkOld("before the second flush")
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), whole...), old[testBlockSize:]...)
	copy(want[testBlockSize+10:], "patch")
	got, err := vfs.ReadFile(e.fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("file does not read the overwritten bytes")
	}
	if p := ptrAt(t, e.fs, in, 0); p.addr == old0.addr {
		t.Fatal("overwrite did not move block 0")
	}

	// The old addresses still read the old bytes, from the cache or, once
	// the flush invalidated them, from the log.
	checkOld("after the second flush")
}
