package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarm"
	"swarm/internal/core"
	"swarm/internal/wire"
)

func startServers(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		s, err := swarm.NewServer(swarm.ServerOptions{
			DiskBytes:    32 << 20,
			FragmentSize: 64 << 10,
			Listen:       "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		addrs = append(addrs, s.Addr())
	}
	return addrs
}

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func ctl(t *testing.T, addrs []string, args ...string) string {
	t.Helper()
	out, err := capture(t, func() error {
		return run(addrs, 1, swarm.ClientOptions{FragmentSize: 64 << 10}, args)
	})
	if err != nil {
		t.Fatalf("swarmctl %v: %v\noutput: %s", args, err, out)
	}
	return out
}

func TestSwarmctlPingAndStat(t *testing.T) {
	addrs := startServers(t, 2)
	out := ctl(t, addrs, "ping")
	if strings.Count(out, "ok") != 2 {
		t.Fatalf("ping = %q", out)
	}
	out = ctl(t, addrs, "stat")
	if !strings.Contains(out, "slots used") || !strings.Contains(out, "in 4 KB units") || !strings.Contains(out, "KB held") {
		t.Fatalf("stat = %q", out)
	}
}

func TestSwarmctlPutGetListVerify(t *testing.T) {
	addrs := startServers(t, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "payload.bin")
	content := []byte("round trip through the striped log")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}

	out := ctl(t, addrs, "put", path)
	if !strings.Contains(out, "stored") {
		t.Fatalf("put = %q", out)
	}
	// Parse "stored N bytes at c/s+off".
	fields := strings.Fields(out)
	addr := fields[len(fields)-1]
	fidPart := addr[:strings.Index(addr, "+")]
	off := addr[strings.Index(addr, "+")+1:]

	got := ctl(t, addrs, "get", fidPart, off, "0")
	_ = got // a zero-length read of the entry offset region

	// Read the payload: the block body begins where put reported.
	got = ctl(t, addrs, "get", fidPart, off, "34")
	if got != string(content) {
		t.Fatalf("get = %q, want %q", got, content)
	}

	out = ctl(t, addrs, "list")
	if !strings.Contains(out, "fragments") {
		t.Fatalf("list = %q", out)
	}
	out = ctl(t, addrs, "verify")
	if !strings.Contains(out, "stripes verified") {
		t.Fatalf("verify = %q", out)
	}
}

func TestSwarmctlErrors(t *testing.T) {
	addrs := startServers(t, 1)
	if err := run(addrs, 1, swarm.ClientOptions{FragmentSize: 64 << 10}, []string{"bogus"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run(addrs, 1, swarm.ClientOptions{FragmentSize: 64 << 10}, []string{"put"}); err == nil {
		t.Fatal("put without file accepted")
	}
	if err := run(addrs, 1, swarm.ClientOptions{FragmentSize: 64 << 10}, []string{"get", "nonsense", "0", "1"}); err == nil {
		t.Fatal("malformed fid accepted")
	}
	// Nothing was stored: a get is not found, not lost.
	if err := run(addrs, 1, swarm.ClientOptions{FragmentSize: 64 << 10}, []string{"get", "1/1", "0", "10"}); !errors.Is(err, core.ErrNotFound) || errors.Is(err, core.ErrLost) {
		t.Fatalf("get of a never-written fid = %v, want core.ErrNotFound", err)
	}
	if err := run([]string{"127.0.0.1:1"}, 1, swarm.ClientOptions{FragmentSize: 64 << 10}, []string{"ping"}); err == nil {
		t.Fatal("ping to dead server should fail at dial")
	}
}

func TestParseFID(t *testing.T) {
	fid, err := parseFID("3/42")
	if err != nil || fid != wire.MakeFID(3, 42) {
		t.Fatalf("parseFID = (%v,%v)", fid, err)
	}
	for _, bad := range []string{"", "3", "3/", "/42", "a/b", "3/42/1"} {
		if _, err := parseFID(bad); err == nil {
			t.Errorf("parseFID(%q) accepted", bad)
		}
	}
}

func TestSwarmctlRebuild(t *testing.T) {
	// Three servers; write data; replace server 2 with an empty one on
	// the same address; rebuild restores its fragments.
	var addrs []string
	var servers []*swarm.Server
	for i := 0; i < 3; i++ {
		s, err := swarm.NewServer(swarm.ServerOptions{
			DiskBytes:    32 << 20,
			FragmentSize: 64 << 10,
			Listen:       "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	dir := t.TempDir()
	path := filepath.Join(dir, "payload.bin")
	if err := os.WriteFile(path, bytes.Repeat([]byte("data"), 2000), 0o644); err != nil {
		t.Fatal(err)
	}
	ctl(t, addrs, "put", path)

	// Replace server 2 (index 1) with a fresh one on the same address.
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	replacement, err := swarm.NewServer(swarm.ServerOptions{
		DiskBytes:    32 << 20,
		FragmentSize: 64 << 10,
		Listen:       addrs[1],
	})
	if err != nil {
		t.Fatal(err)
	}
	servers[1] = replacement

	out := ctl(t, addrs, "rebuild", "2")
	if !strings.Contains(out, "rebuilt") || strings.Contains(out, "rebuilt 0 fragments") {
		t.Fatalf("rebuild = %q", out)
	}
	// Everything verifies afterwards.
	out = ctl(t, addrs, "verify")
	if strings.Contains(out, "BAD") {
		t.Fatalf("verify after rebuild = %q", out)
	}
}

func TestSwarmctlHealth(t *testing.T) {
	addrs := startServers(t, 2)
	out := ctl(t, addrs, "health")
	if strings.Count(out, "circuit closed") != 2 {
		t.Fatalf("health = %q", out)
	}
	if !strings.Contains(out, "degraded writes") || !strings.Contains(out, "deletes deferred") {
		t.Fatalf("health counters missing: %q", out)
	}
}
