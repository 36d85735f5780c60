package swarm

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"swarm/internal/core"
	"swarm/internal/transport"
)

func testCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(n, ServerOptions{DiskBytes: 64 << 20, FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	cl := testCluster(t, 4)
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}

	// Raw log access.
	addr, err := client.Log().AppendBlock(7, []byte("first block"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := client.Log().Read(addr, 0, 11)
	if err != nil || string(got) != "first block" {
		t.Fatalf("read = (%q,%v)", got, err)
	}

	// Sting file system.
	fs, err := client.Mount(FSConfig{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := MkdirAll(fs, "/docs/notes"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fs, "/docs/notes/todo.txt", []byte("reproduce the paper")); err != nil {
		t.Fatal(err)
	}
	data, err := ReadFile(fs, "/docs/notes/todo.txt")
	if err != nil || string(data) != "reproduce the paper" {
		t.Fatalf("fs read = (%q,%v)", data, err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	// Reconnect: everything recovered.
	client2, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	fs2, err := client2.Mount(FSConfig{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data, err = ReadFile(fs2, "/docs/notes/todo.txt")
	if err != nil || string(data) != "reproduce the paper" {
		t.Fatalf("recovered fs read = (%q,%v)", data, err)
	}
}

func TestPublicAPITCP(t *testing.T) {
	var addrs []string
	var servers []*Server
	for i := 0; i < 3; i++ {
		s, err := NewServer(ServerOptions{
			DiskBytes:    32 << 20,
			FragmentSize: 64 << 10,
			Listen:       "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	client, err := ConnectAddrs(1, addrs, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payload := bytes.Repeat([]byte("tcp"), 5000)
	addr, err := client.Log().AppendBlock(7, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Sync(); err != nil {
		t.Fatal(err)
	}

	// Kill one server: reads must survive via reconstruction.
	servers[1].Close()
	got, err := client.Log().Read(addr, 0, uint32(len(payload)))
	if err != nil {
		t.Fatalf("read after server death: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reconstructed data mismatch")
	}
}

func TestPublicAPIFileBackedServer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "server.img")
	s, err := NewServer(ServerOptions{DiskPath: path, DiskBytes: 16 << 20, FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cl := &Cluster{servers: []*Server{s}}
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := client.Log().AppendBlock(7, []byte("persistent"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the same disk file.
	s2, err := NewServer(ServerOptions{DiskPath: path, DiskBytes: 16 << 20, Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cl2 := &Cluster{servers: []*Server{s2}}
	client2, err := cl2.Connect(1, ClientOptions{FragmentSize: 64 << 10, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	got, err := client2.Log().Read(addr, 0, 10)
	if err != nil || string(got) != "persistent" {
		t.Fatalf("file-backed read = (%q,%v)", got, err)
	}
}

func TestPublicAPIARU(t *testing.T) {
	cl := testCluster(t, 2)
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := client.NewARUManager(nil)
	if err != nil {
		t.Fatal(err)
	}
	u := mgr.Begin()
	if err := u.Write([]byte("atomic-1")); err != nil {
		t.Fatal(err)
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	// Uncommitted unit.
	u2 := mgr.Begin()
	if err := u2.Write([]byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if err := client.Sync(); err != nil {
		t.Fatal(err)
	}
	client.Close()

	var replayed []string
	client2, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	if _, err := client2.NewARUManager(func(p []byte) error {
		replayed = append(replayed, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || replayed[0] != "atomic-1" {
		t.Fatalf("replayed = %v", replayed)
	}
}

func TestPublicAPILogicalDisk(t *testing.T) {
	cl := testCluster(t, 2)
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ld, err := client.NewLogicalDisk(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.Write(9, []byte("logical")); err != nil {
		t.Fatal(err)
	}
	if err := ld.Write(9, []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	got, err := ld.Read(9)
	if err != nil || string(got) != "overwritten" {
		t.Fatalf("ldisk read = (%q,%v)", got, err)
	}
}

func TestPublicAPICleaner(t *testing.T) {
	cl := testCluster(t, 3)
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ld, err := client.NewLogicalDisk(4096)
	if err != nil {
		t.Fatal(err)
	}
	// Churn to create garbage.
	for round := 0; round < 8; round++ {
		for i := uint64(0); i < 16; i++ {
			if err := ld.Write(i, bytes.Repeat([]byte{byte(round)}, 4000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ld.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c := client.StartCleaner(0, CleanerConfig{UtilizationThreshold: 0.8, MaxStripesPerPass: 100})
	if _, err := c.CleanOnce(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().StripesCleaned == 0 {
		t.Fatal("cleaner reclaimed nothing")
	}
	for i := uint64(0); i < 16; i++ {
		got, err := ld.Read(i)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{7}, 4000)) {
			t.Fatalf("lbn %d after clean = %v", i, err)
		}
	}
}

func TestPublicAPIBackgroundCleaner(t *testing.T) {
	cl := testCluster(t, 2)
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c := client.StartCleaner(time.Millisecond, CleanerConfig{})
	if c == nil {
		t.Fatal("nil cleaner")
	}
	// Close stops the background loop without hanging.
	done := make(chan struct{})
	go func() {
		client.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with background cleaner")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewLocalCluster(0, ServerOptions{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestConnectAddrsFailure(t *testing.T) {
	if _, err := ConnectAddrs(1, []string{"127.0.0.1:1"}, ClientOptions{}); err == nil {
		t.Fatal("connect to dead address succeeded")
	}
}

func TestErrorAliases(t *testing.T) {
	cl := testCluster(t, 2)
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	fs, err := client.Mount(FSConfig{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	if _, err := fs.Open("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); !errors.Is(err, ErrExist) {
		t.Fatalf("mkdir dup: %v", err)
	}
}

func TestMultipleClientsShareCluster(t *testing.T) {
	cl := testCluster(t, 4)
	const nClients = 3
	type result struct {
		addr BlockAddr
		data []byte
	}
	results := make([]result, nClients)
	clients := make([]*Client, nClients)
	for i := 0; i < nClients; i++ {
		c, err := cl.Connect(ClientID(i+1), ClientOptions{FragmentSize: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		data := bytes.Repeat([]byte{byte(i + 1)}, 2000)
		addr, err := c.Log().AppendBlock(7, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = result{addr, data}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Each client reads its own data back; logs are fully independent.
	for i, c := range clients {
		got, err := c.Log().Read(results[i].addr, 0, 2000)
		if err != nil || !bytes.Equal(got, results[i].data) {
			t.Fatalf("client %d read = %v", i, err)
		}
		c.Close()
	}
}

func TestServerStatsAndString(t *testing.T) {
	cl := testCluster(t, 1)
	fragSize, total, free, frags := cl.Servers()[0].Stats()
	if fragSize != 64<<10 || total == 0 || free != total || frags != 0 {
		t.Fatalf("stats = %d %d %d %d", fragSize, total, free, frags)
	}
	if s := cl.Servers()[0].String(); s == "" {
		t.Fatal("empty String()")
	}
	_ = fmt.Sprintf("%v", cl.Servers()[0])
}

func TestPublicAPIProtectedLog(t *testing.T) {
	cl := testCluster(t, 3)
	owner, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10, Protect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	addr, err := owner.Log().AppendBlock(7, []byte("private"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Sync(); err != nil {
		t.Fatal(err)
	}
	// The owner reads its own data.
	if _, err := owner.Log().Read(addr, 0, 7); err != nil {
		t.Fatal(err)
	}

	// A stranger reading the raw fragment bytes is denied everywhere,
	// so even reconstruction cannot bypass the ACL.
	stranger, err := cl.Connect(2, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	strangerView, _, err := core.Open(core.Config{
		Client:       1, // claims owner's FID space, but connects as client 2
		Servers:      strangerConns(cl, 2),
		FragmentSize: 64 << 10,
	})
	if err == nil {
		if _, _, rerr := strangerView.FetchFragment(addr.FID); rerr == nil {
			t.Fatal("stranger read protected fragment")
		}
	}

	// Granting access admits the stranger.
	if err := owner.GrantAccess(2); err != nil {
		t.Fatal(err)
	}
	grantedView, _, err := core.Open(core.Config{
		Client:       1,
		Servers:      strangerConns(cl, 2),
		FragmentSize: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := grantedView.FetchFragment(addr.FID); err != nil {
		t.Fatalf("granted client denied: %v", err)
	}
	// Revoking shuts the door again.
	if err := owner.RevokeAccess(2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := grantedView.FetchFragment(addr.FID); err == nil {
		t.Fatal("revoked client still has access")
	}
	// GrantAccess without Protect errors.
	if err := stranger.GrantAccess(3); err == nil {
		t.Fatal("GrantAccess on unprotected client succeeded")
	}
}

// strangerConns builds connections to the cluster identifying as the
// given client (white-box helper for the ACL test).
func strangerConns(cl *Cluster, as ClientID) []transport.ServerConn {
	conns := make([]transport.ServerConn, 0, len(cl.servers))
	for i, s := range cl.servers {
		conns = append(conns, transport.NewLocal(ServerID(i+1), s.store, as))
	}
	return conns
}

func TestPublicAPILogicalDiskWithCodec(t *testing.T) {
	cl := testCluster(t, 2)
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ld, err := client.NewLogicalDisk(8192)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFlateCodec(-1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewAESCodec(bytes.Repeat([]byte{9}, 32))
	if err != nil {
		t.Fatal(err)
	}
	ld.SetCodec(NewCodecChain(fl, enc))

	plaintext := bytes.Repeat([]byte("compress me, then hide me. "), 200)
	if err := ld.Write(1, plaintext); err != nil {
		t.Fatal(err)
	}
	if err := client.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := ld.Read(1)
	if err != nil || !bytes.Equal(got, plaintext) {
		t.Fatalf("codec roundtrip failed: %v", err)
	}
	// The plaintext must not appear anywhere on the servers' disks.
	for _, s := range cl.Servers() {
		fids := s.store.List(1)
		for _, fid := range fids {
			size, ok := s.store.Has(fid)
			if !ok {
				continue
			}
			raw, _, err := s.store.Read(1, fid, 0, size)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(raw, []byte("compress me, then hide me.")) {
				t.Fatal("plaintext leaked to server storage")
			}
		}
	}
}

func TestConcurrentChurnWithBackgroundCleaner(t *testing.T) {
	// Soak: three clients churn logical disks concurrently while each
	// runs a background cleaner; everything must stay consistent.
	cl := testCluster(t, 4)
	const (
		nClients = 3
		rounds   = 6
		nBlocks  = 12
	)
	errs := make(chan error, nClients)
	for ci := 0; ci < nClients; ci++ {
		go func(ci int) {
			errs <- func() error {
				client, err := cl.Connect(ClientID(ci+1), ClientOptions{FragmentSize: 64 << 10})
				if err != nil {
					return err
				}
				defer client.Close()
				ld, err := client.NewLogicalDisk(4096)
				if err != nil {
					return err
				}
				cleaner := client.StartCleaner(2*time.Millisecond, CleanerConfig{
					UtilizationThreshold: 0.8,
					MaxStripesPerPass:    10,
				})
				_ = cleaner
				for r := 0; r < rounds; r++ {
					for i := uint64(0); i < nBlocks; i++ {
						data := bytes.Repeat([]byte{byte(ci*100 + r)}, 3500)
						if err := ld.Write(i, data); err != nil {
							return fmt.Errorf("client %d write: %w", ci, err)
						}
					}
					if err := ld.Checkpoint(); err != nil {
						return fmt.Errorf("client %d checkpoint: %w", ci, err)
					}
				}
				// Final verification.
				for i := uint64(0); i < nBlocks; i++ {
					got, err := ld.Read(i)
					if err != nil {
						return fmt.Errorf("client %d read %d: %w", ci, i, err)
					}
					want := bytes.Repeat([]byte{byte(ci*100 + rounds - 1)}, 3500)
					if !bytes.Equal(got, want) {
						return fmt.Errorf("client %d block %d corrupted", ci, i)
					}
				}
				return nil
			}()
		}(ci)
	}
	for i := 0; i < nClients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
