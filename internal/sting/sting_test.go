package sting

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"swarm/internal/cleaner"
	"swarm/internal/core"
	"swarm/internal/disk"
	"swarm/internal/server"
	"swarm/internal/service"
	"swarm/internal/transport"
	"swarm/internal/vfs"
	"swarm/internal/vfs/vfstest"
	"swarm/internal/wire"
)

const (
	testFragSize  = 16384
	testBlockSize = 1024
)

type env struct {
	frag  int
	flaky []*transport.Flaky
	conns []transport.ServerConn
	log   *core.Log
	reg   *service.Registry
	fs    *FS
}

func newEnv(t *testing.T, servers int) *env {
	t.Helper()
	return newEnvSized(t, servers, testFragSize, 64<<20)
}

// newEnvSized is newEnv with a given fragment size and per-server disk.
func newEnvSized(t *testing.T, servers, fragSize int, diskBytes int64) *env {
	t.Helper()
	e := &env{frag: fragSize}
	for i := 0; i < servers; i++ {
		d := disk.NewMemDisk(diskBytes)
		st, err := server.Format(d, server.Config{FragmentSize: fragSize})
		if err != nil {
			t.Fatal(err)
		}
		fl := transport.NewFlaky(transport.NewLocal(wire.ServerID(i+1), st, 1))
		e.flaky = append(e.flaky, fl)
		e.conns = append(e.conns, fl)
	}
	e.mount(t)
	return e
}

// mount (re)opens the log and mounts Sting, simulating a client restart.
func (e *env) mount(t *testing.T) {
	t.Helper()
	l, rec, err := core.Open(core.Config{Client: 1, Servers: e.conns, FragmentSize: e.frag})
	if err != nil {
		t.Fatal(err)
	}
	e.log = l
	e.reg = service.NewRegistry(l)
	e.fs, err = Mount(l, e.reg, rec, Config{BlockSize: testBlockSize, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
}

// crash abandons the current FS (no unmount) and remounts.
func (e *env) crash(t *testing.T) {
	t.Helper()
	e.mount(t)
}

func TestConformance(t *testing.T) {
	vfstest.Conformance(t, func(t *testing.T) vfs.FileSystem {
		return newEnv(t, 3).fs
	})
}

func TestConformanceNoCache(t *testing.T) {
	vfstest.Conformance(t, func(t *testing.T) vfs.FileSystem {
		e := &env{}
		for i := 0; i < 2; i++ {
			d := disk.NewMemDisk(64 << 20)
			st, err := server.Format(d, server.Config{FragmentSize: testFragSize})
			if err != nil {
				t.Fatal(err)
			}
			e.conns = append(e.conns, transport.NewLocal(wire.ServerID(i+1), st, 1))
		}
		l, rec, err := core.Open(core.Config{Client: 1, Servers: e.conns, FragmentSize: testFragSize})
		if err != nil {
			t.Fatal(err)
		}
		reg := service.NewRegistry(l)
		fs, err := Mount(l, reg, rec, Config{BlockSize: testBlockSize})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	})
}

func TestUnmountPersistsEverything(t *testing.T) {
	e := newEnv(t, 3)
	if err := vfs.MkdirAll(e.fs, "/a/b"); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("swarm"), 1000)
	if err := vfs.WriteFile(e.fs, "/a/b/file", content); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	e.mount(t)
	got, err := vfs.ReadFile(e.fs, "/a/b/file")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("contents lost across unmount")
	}
	info, err := e.fs.Stat("/a/b")
	if err != nil || !info.Mode.IsDir() {
		t.Fatalf("dir lost: %+v %v", info, err)
	}
}

func TestCrashAfterSyncRecoversWithoutCheckpoint(t *testing.T) {
	e := newEnv(t, 3)
	if err := vfs.WriteFile(e.fs, "/keep", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(e.fs, "/dir/nested", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash with no checkpoint ever written: full rollforward from the
	// start of the log.
	e.crash(t)
	got, err := vfs.ReadFile(e.fs, "/keep")
	if err != nil || string(got) != "survives" {
		t.Fatalf("/keep = (%q,%v)", got, err)
	}
	got, err = vfs.ReadFile(e.fs, "/dir/nested")
	if err != nil || string(got) != "deep" {
		t.Fatalf("/dir/nested = (%q,%v)", got, err)
	}
}

func TestCrashRecoveryWithCheckpointAndRollforward(t *testing.T) {
	e := newEnv(t, 3)
	if err := vfs.WriteFile(e.fs, "/old", []byte("pre-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint activity: create, overwrite, unlink, mkdir.
	if err := vfs.WriteFile(e.fs, "/new", []byte("post-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(e.fs, "/old", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(e.fs, "/gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Unlink("/gone"); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Mkdir("/d2"); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}

	e.crash(t)
	got, err := vfs.ReadFile(e.fs, "/new")
	if err != nil || string(got) != "post-checkpoint" {
		t.Fatalf("/new = (%q,%v)", got, err)
	}
	got, err = vfs.ReadFile(e.fs, "/old")
	if err != nil || string(got) != "rewritten" {
		t.Fatalf("/old = (%q,%v)", got, err)
	}
	if _, err := e.fs.Stat("/gone"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("/gone = %v", err)
	}
	if info, err := e.fs.Stat("/d2"); err != nil || !info.Mode.IsDir() {
		t.Fatalf("/d2 = (%+v,%v)", info, err)
	}
}

func TestCrashLosesUnsyncedWrites(t *testing.T) {
	e := newEnv(t, 3)
	if err := vfs.WriteFile(e.fs, "/durable", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Write without sync, then crash: the write-back cache contents are
	// gone, like any local file system.
	if err := vfs.WriteFile(e.fs, "/volatile", []byte("no")); err != nil {
		t.Fatal(err)
	}
	e.crash(t)
	if _, err := vfs.ReadFile(e.fs, "/durable"); err != nil {
		t.Fatalf("durable file lost: %v", err)
	}
	if _, err := e.fs.Stat("/volatile"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("unsynced file survived: %v", err)
	}
}

func TestReadsSurviveServerFailure(t *testing.T) {
	e := newEnv(t, 4)
	content := bytes.Repeat([]byte{0xAB}, 50_000)
	if err := vfs.WriteFile(e.fs, "/big", content); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Remount WITHOUT cache so reads actually hit the servers, then take
	// one server down.
	l, rec, err := core.Open(core.Config{Client: 1, Servers: e.conns, FragmentSize: testFragSize})
	if err != nil {
		t.Fatal(err)
	}
	reg := service.NewRegistry(l)
	fs2, err := Mount(l, reg, rec, Config{BlockSize: testBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	e.flaky[1].SetDown(true)
	defer e.flaky[1].SetDown(false)
	got, err := vfs.ReadFile(fs2, "/big")
	if err != nil {
		t.Fatalf("read with server down: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("reconstructed file corrupted")
	}
	if l.Stats().Reconstructions == 0 {
		t.Fatal("no reconstructions happened")
	}
}

func TestCleanerIntegrationWithSting(t *testing.T) {
	e := newEnv(t, 3)
	// Churn: overwrite files repeatedly to generate garbage.
	for round := 0; round < 5; round++ {
		for i := 0; i < 8; i++ {
			path := fmt.Sprintf("/f%d", i)
			data := bytes.Repeat([]byte{byte(round*8 + i)}, 3000)
			if err := vfs.WriteFile(e.fs, path, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c := cleaner.New(e.log, e.reg, cleaner.Config{UtilizationThreshold: 0.8, MaxStripesPerPass: 100})
	if _, err := c.CleanOnce(); err != nil && !errors.Is(err, cleaner.ErrNothingToClean) {
		t.Fatal(err)
	}
	// Everything still correct after cleaning.
	for i := 0; i < 8; i++ {
		got, err := vfs.ReadFile(e.fs, fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatalf("read f%d after clean: %v", i, err)
		}
		want := bytes.Repeat([]byte{byte(4*8 + i)}, 3000)
		if !bytes.Equal(got, want) {
			t.Fatalf("f%d corrupted after clean", i)
		}
	}
	// And after cleaning + crash.
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	e.crash(t)
	for i := 0; i < 8; i++ {
		got, err := vfs.ReadFile(e.fs, fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatalf("read f%d after clean+crash: %v", i, err)
		}
		want := bytes.Repeat([]byte{byte(4*8 + i)}, 3000)
		if !bytes.Equal(got, want) {
			t.Fatalf("f%d corrupted after clean+crash", i)
		}
	}
}

func TestAutoFlushOnDirtyLimit(t *testing.T) {
	e := &env{}
	d := disk.NewMemDisk(64 << 20)
	st, err := server.Format(d, server.Config{FragmentSize: testFragSize})
	if err != nil {
		t.Fatal(err)
	}
	e.conns = []transport.ServerConn{transport.NewLocal(1, st, 1)}
	l, rec, err := core.Open(core.Config{Client: 1, Servers: e.conns, FragmentSize: testFragSize})
	if err != nil {
		t.Fatal(err)
	}
	reg := service.NewRegistry(l)
	fs, err := Mount(l, reg, rec, Config{BlockSize: testBlockSize, DirtyLimit: 8 * testBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 32*testBlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().Flushes == 0 {
		t.Fatal("dirty limit never triggered a flush")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

func TestInodeEncodeDecodeRoundTrip(t *testing.T) {
	in := newFileInode(42, time.Unix(100, 0))
	in.size = 12345
	in.gen = 3
	in.tree.root.ptrs[0] = blockPtr{addr: core.BlockAddr{FID: wire.MakeFID(1, 2), Off: 3}, len: 1024}
	// slot 1 is a hole
	in.tree.root.ptrs[2] = blockPtr{addr: core.BlockAddr{FID: wire.MakeFID(1, 5), Off: 9}, len: 100}
	got, err := decodeInode(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ino != 42 || got.size != 12345 || got.gen != 3 || got.mode != vfs.ModeFile || got.tree.depth != 0 {
		t.Fatalf("roundtrip = %+v", got)
	}
	if got.tree.root.ptrs != in.tree.root.ptrs {
		t.Fatalf("root = %+v", got.tree.root.ptrs)
	}

	dir := newDirInode(7, time.Unix(100, 0))
	dir.buckets[0].put("a", dirEnt{ino: 9, mode: vfs.ModeFile})
	dir.buckets[0].put("b", dirEnt{ino: 10, mode: vfs.ModeDir})
	dir.nents = 2
	got, err = decodeInode(dir.encode())
	if err != nil {
		t.Fatal(err)
	}
	ents := got.buckets[0].ents
	if !got.isDir() || got.nents != 2 || len(ents) != 2 || ents["a"].ino != 9 || ents["b"].mode != vfs.ModeDir {
		t.Fatalf("dir roundtrip = %+v", got)
	}

	// A bucketed directory carries its tree root instead of entries.
	dir.nb = 4
	dir.buckets = make([]*bucket, 4)
	dir.tree.depth = 1
	dir.tree.root.ptrs[0] = in.tree.root.ptrs[0]
	got, err = decodeInode(dir.encode())
	if err != nil || got.nb != 4 || len(got.buckets) != 4 || got.tree.depth != 1 || got.tree.root.ptrs[0] != dir.tree.root.ptrs[0] {
		t.Fatalf("bucketed dir roundtrip = (%+v,%v)", got, err)
	}
	if _, err := decodeInode([]byte{1, 2}); err == nil {
		t.Fatal("garbage inode decoded")
	}
}

func TestHintRoundTrip(t *testing.T) {
	for _, want := range []hint{
		{kind: hintInode, ino: 99, pos: 99, gen: 4},
		{kind: hintData, ino: 5, pos: 12, gen: 7},
		{kind: hintMap, ino: 5, level: 2, pos: 3, gen: 7},
		{kind: hintImap, level: 1, pos: 8, gen: 2},
	} {
		got, err := decodeHint(want.encode())
		if err != nil || got != want {
			t.Fatalf("hint %+v = (%+v,%v)", want, got, err)
		}
	}
	if _, err := decodeHint(hint{kind: 9}.encode()); err == nil {
		t.Fatal("unknown hint kind accepted")
	}
	if _, err := decodeHint(hint{kind: hintData, level: 1}.encode()); err == nil {
		t.Fatal("data hint above level 0 accepted")
	}
	if _, err := decodeHint(hint{kind: hintMap}.encode()); err == nil {
		t.Fatal("map hint at level 0 accepted")
	}
	if _, err := decodeHint(nil); err == nil {
		t.Fatal("empty hint accepted")
	}
}

func TestUnlinkRecordRoundTrip(t *testing.T) {
	r, err := decodeRecord(encodeUnlinkRecord(77))
	if err != nil || r.kind != recUnlinkInode || r.ino != 77 {
		t.Fatalf("unlink record = (%+v,%v)", r, err)
	}
	addr := core.BlockAddr{FID: wire.MakeFID(1, 9), Off: 40}
	r, err = decodeRecord(encodeVoidRecord(addr))
	if err != nil || r.kind != recVoidCopy || r.addr != addr {
		t.Fatalf("void record = (%+v,%v)", r, err)
	}
	if _, err := decodeRecord([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown record kind accepted")
	}
	if _, err := decodeRecord([]byte{recVoidCopy, 1}); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestStatsProgress(t *testing.T) {
	e := newEnv(t, 2)
	if err := vfs.WriteFile(e.fs, "/f", make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.ReadFile(e.fs, "/f"); err != nil {
		t.Fatal(err)
	}
	st := e.fs.Stats()
	if st.BytesWritten != 5000 || st.BlocksOut == 0 || st.InodesOut == 0 || st.Flushes == 0 || st.BytesRead != 5000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClosedFSRejectsOps(t *testing.T) {
	e := newEnv(t, 2)
	if err := e.fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.fs.Create("/x"); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("create after unmount: %v", err)
	}
	if _, err := e.fs.Open("/x"); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("open after unmount: %v", err)
	}
	if err := e.fs.Sync(); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("sync after unmount: %v", err)
	}
}

func TestFileHandleAfterClose(t *testing.T) {
	e := newEnv(t, 2)
	f, err := e.fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestRepeatedCrashRecoveryCycles(t *testing.T) {
	e := newEnv(t, 3)
	for cycle := 0; cycle < 5; cycle++ {
		path := fmt.Sprintf("/cycle%d", cycle)
		if err := vfs.WriteFile(e.fs, path, []byte(path)); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if cycle%2 == 0 {
			if err := e.fs.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := e.fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		e.crash(t)
		for c := 0; c <= cycle; c++ {
			p := fmt.Sprintf("/cycle%d", c)
			got, err := vfs.ReadFile(e.fs, p)
			if err != nil || string(got) != p {
				t.Fatalf("cycle %d: file %s = (%q,%v)", cycle, p, got, err)
			}
		}
	}
}
