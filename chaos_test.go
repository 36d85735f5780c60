package swarm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// chaosCluster builds n in-process servers reached through
// Resilient → Flaky → Local connections: the same stack a TCP client
// gets, with a fault-injection layer in the middle.
func chaosCluster(t *testing.T, n int, cfg transport.ResilientConfig) (*Client, []*transport.Flaky) {
	t.Helper()
	return chaosClusterOpts(t, n, cfg, ClientOptions{})
}

// chaosClusterOpts is chaosCluster with explicit client options (the
// fragment size is always pinned to 16 KB).
func chaosClusterOpts(t *testing.T, n int, cfg transport.ResilientConfig, opts ClientOptions) (*Client, []*transport.Flaky) {
	t.Helper()
	conns := make([]transport.ServerConn, n)
	flaky := make([]*transport.Flaky, n)
	for i := 0; i < n; i++ {
		s, err := NewServer(ServerOptions{DiskBytes: 64 << 20, FragmentSize: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		flaky[i] = transport.NewFlaky(transport.NewLocal(ServerID(i+1), s.store, 1))
		conns[i] = transport.NewResilient(flaky[i], cfg)
	}
	opts.FragmentSize = 16 << 10
	c, err := connect(1, conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, flaky
}

// chaosBlock derives a deterministic block body from (lbn, version).
func chaosBlock(lbn uint64, version int, size int) []byte {
	b := make([]byte, size)
	var seed [16]byte
	binary.LittleEndian.PutUint64(seed[0:], lbn)
	binary.LittleEndian.PutUint64(seed[8:], uint64(version))
	for i := range b {
		b[i] = seed[i%16] ^ byte(i)
	}
	return b
}

// TestChaosSurvivesServerOutages runs a mixed read/write/cleaner
// workload while servers are killed and restored, asserting zero data
// loss throughout and full redundancy after RebuildServer.
func TestChaosSurvivesServerOutages(t *testing.T) {
	const (
		nServers  = 5
		nBlocks   = 96
		blockSize = 2048
	)
	cfg := transport.ResilientConfig{
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
		RetryMax:      4 * time.Millisecond,
		FailThreshold: 3,
		OpenTimeout:   40 * time.Millisecond,
		Seed:          7,
	}
	c, flaky := chaosCluster(t, nServers, cfg)
	defer c.Close()

	d, err := c.NewLogicalDisk(blockSize)
	if err != nil {
		t.Fatal(err)
	}
	cln := c.StartCleaner(0, CleanerConfig{UtilizationThreshold: 0.9, MaxStripesPerPass: 2, Force: true})

	content := make(map[uint64]int) // lbn → latest version written
	write := func(lbn uint64, version int) {
		t.Helper()
		if err := d.Write(lbn, chaosBlock(lbn, version, blockSize)); err != nil {
			t.Fatalf("write block %d v%d: %v", lbn, version, err)
		}
		content[lbn] = version
	}
	verifyAll := func(stage string) {
		t.Helper()
		for lbn, v := range content {
			got, err := d.Read(lbn)
			if err != nil {
				t.Fatalf("%s: read block %d: %v", stage, lbn, err)
			}
			if !bytes.Equal(got, chaosBlock(lbn, v, blockSize)) {
				t.Fatalf("%s: block %d corrupt", stage, lbn)
			}
		}
	}

	// Base load while everything is healthy.
	for i := 0; i < nBlocks; i++ {
		write(uint64(i), 0)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	version := 1

	// Kill and restore servers one at a time, overwriting and reading
	// through each outage; the cleaner runs mid-outage too.
	for _, victim := range []int{1, 3} {
		flaky[victim].SetDown(true)
		for i := 0; i < nBlocks/2; i++ {
			write(uint64(rng.Intn(nBlocks)), version)
			version++
		}
		if err := d.Sync(); err != nil {
			t.Fatalf("sync with server %d down: %v", victim+1, err)
		}
		if _, err := cln.CleanOnce(); err != nil {
			t.Fatalf("clean with server %d down: %v", victim+1, err)
		}
		verifyAll("during outage")

		flaky[victim].SetDown(false)
		// Let the breaker's open window lapse so the next call probes and
		// closes the circuit.
		time.Sleep(3 * cfg.OpenTimeout)
		if _, err := c.RebuildServer(ServerID(victim + 1)); err != nil {
			t.Fatalf("rebuild server %d: %v", victim+1, err)
		}
	}
	if stats := c.Log().Stats(); stats.DegradedWrites == 0 {
		t.Fatalf("chaos run never exercised degraded writes: %+v", stats)
	}

	// Probabilistic failures plus injected latency on one server; the
	// retry layer absorbs them without surfacing errors.
	flaky[0].SetFailureRate(0.02, 4242)
	flaky[0].SetLatency(200 * time.Microsecond)
	for i := 0; i < nBlocks; i++ {
		write(uint64(rng.Intn(nBlocks)), version)
		version++
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync under probabilistic chaos: %v", err)
	}
	flaky[0].SetFailureRate(0, 0)
	flaky[0].SetLatency(0)

	// Quiesce: rebuild every server, then everything must verify clean
	// with full redundancy.
	time.Sleep(3 * cfg.OpenTimeout)
	if _, err := cln.CleanOnce(); err != nil {
		t.Fatalf("final clean: %v", err)
	}
	for i := 0; i < nServers; i++ {
		if _, err := c.RebuildServer(ServerID(i + 1)); err != nil {
			t.Fatalf("final rebuild of server %d: %v", i+1, err)
		}
	}
	if left := c.Log().DegradedFIDs(); len(left) != 0 {
		t.Fatalf("degraded fragments remain after rebuild: %v", left)
	}
	verifyAll("final")
	for _, s := range c.Log().Usage().Stripes() {
		if u, _ := c.Log().Usage().Get(s); !u.Closed {
			continue
		}
		if err := c.Log().VerifyStripe(s); err != nil {
			t.Fatalf("stripe %d fails verification after rebuild: %v", s, err)
		}
	}
}

// TestChaosZipfReadsAlwaysFresh is the serving-tier chaos run: a fleet
// of Zipf-skewed readers hammers the cluster — through the servers' read
// caches, which NewServer enables by default — while a writer overwrites
// blocks, the cleaner recycles stripes, and servers are killed, restored,
// and rebuilt. Every read must return an internally consistent block no
// older than what was durably committed before the read began: a cached
// extent surviving slot recycling, reconstruction, or rebuild would
// surface here as stale or torn bytes (the generation-counter invariant,
// DESIGN.md §3.13). The second case gives each server a cache smaller
// than the data it holds, so misses past the cache's capacity are range
// reads racing the same overwrites, cleaner passes, kills and rebuilds.
func TestChaosZipfReadsAlwaysFresh(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64 // 0 = NewServer's default
	}{
		{"default cache", 0},
		{"cache smaller than the data", 2 * chaosZipfFragment},
	} {
		t.Run(tc.name, func(t *testing.T) { chaosZipfReads(t, tc.cacheBytes) })
	}
}

const chaosZipfFragment = 16 << 10

func chaosZipfReads(t *testing.T, cacheBytes int64) {
	const (
		nServers  = 5
		nBlocks   = 64
		blockSize = 2048
		readers   = 8
	)
	cfg := transport.ResilientConfig{
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
		RetryMax:      4 * time.Millisecond,
		FailThreshold: 3,
		OpenTimeout:   40 * time.Millisecond,
		Seed:          21,
	}
	conns := make([]transport.ServerConn, nServers)
	flaky := make([]*transport.Flaky, nServers)
	servers := make([]*Server, nServers)
	for i := 0; i < nServers; i++ {
		s, err := NewServer(ServerOptions{DiskBytes: 64 << 20, FragmentSize: chaosZipfFragment, ReadCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers[i] = s
		flaky[i] = transport.NewFlaky(transport.NewLocal(ServerID(i+1), s.store, 1))
		conns[i] = transport.NewResilient(flaky[i], cfg)
	}
	c, err := connect(1, conns, ClientOptions{FragmentSize: chaosZipfFragment})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d, err := c.NewLogicalDisk(blockSize)
	if err != nil {
		t.Fatal(err)
	}
	cln := c.StartCleaner(0, CleanerConfig{UtilizationThreshold: 0.9, MaxStripesPerPass: 2, Force: true})

	// version[lbn] is the latest durably readable version; monotonic per
	// block (the global counter only grows).
	var verMu sync.Mutex
	version := make([]int, nBlocks)
	for i := 0; i < nBlocks; i++ {
		if err := d.Write(uint64(i), chaosBlock(uint64(i), 0, blockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	// Zipf(1.0) inverse-CDF table: rank r is read ∝ 1/(r+1).
	cum := make([]float64, nBlocks)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}

	stop := make(chan struct{})
	var readOps atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*7 + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lbn := uint64(sort.SearchFloat64s(cum, rng.Float64()*total))
				verMu.Lock()
				vmin := version[lbn]
				verMu.Unlock()
				// A block can be mid-relocation (cleaner) or mid-overwrite:
				// its old address transiently errors. Retry; only wrong
				// BYTES are a failure.
				var got []byte
				var rerr error
				for attempt := 0; attempt < 8; attempt++ {
					if got, rerr = d.Read(lbn); rerr == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if rerr != nil {
					t.Errorf("read block %d: %v", lbn, rerr)
					return
				}
				// Recover the (lbn, version) seed the block was generated
				// from, then require exact regeneration: any torn or
				// cross-slot bytes break the whole-block pattern.
				var seed [16]byte
				for i := 0; i < 16; i++ {
					seed[i] = got[i] ^ byte(i)
				}
				gotLbn := binary.LittleEndian.Uint64(seed[0:8])
				gotVer := int(binary.LittleEndian.Uint64(seed[8:16]))
				if gotLbn != lbn {
					t.Errorf("block %d served block %d's data (stale cache extent?)", lbn, gotLbn)
					return
				}
				if !bytes.Equal(got, chaosBlock(lbn, gotVer, blockSize)) {
					t.Errorf("block %d v%d torn", lbn, gotVer)
					return
				}
				if gotVer < vmin {
					t.Errorf("block %d served v%d, but v%d was committed before the read", lbn, gotVer, vmin)
					return
				}
				readOps.Add(1)
			}
		}(r)
	}

	// Writer + chaos driver: overwrite bursts, outages, cleaner churn,
	// rebuilds — all while the readers run.
	rng := rand.New(rand.NewSource(55))
	nextVer := 1
	writeBurst := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			lbn := uint64(rng.Intn(nBlocks))
			v := nextVer
			nextVer++
			if err := d.Write(lbn, chaosBlock(lbn, v, blockSize)); err != nil {
				t.Fatalf("write block %d v%d: %v", lbn, v, err)
			}
			// A completed Write is immediately readable (read-your-writes
			// serves in-flight fragments), so v is now the reader floor.
			verMu.Lock()
			version[lbn] = v
			verMu.Unlock()
		}
		if err := d.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	for _, victim := range []int{1, 3} {
		writeBurst(16)
		flaky[victim].SetDown(true)
		writeBurst(16)
		if _, err := cln.CleanOnce(); err != nil {
			t.Fatalf("clean with server %d down: %v", victim+1, err)
		}
		flaky[victim].SetDown(false)
		time.Sleep(3 * cfg.OpenTimeout)
		if _, err := c.RebuildServer(ServerID(victim + 1)); err != nil {
			t.Fatalf("rebuild server %d: %v", victim+1, err)
		}
		writeBurst(16)
	}
	if _, err := cln.CleanOnce(); err != nil {
		t.Fatalf("final clean: %v", err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if ops := readOps.Load(); ops < int64(readers) {
		t.Fatalf("only %d reads completed", ops)
	}

	// Quiesced: every block must read back its exact latest version.
	verMu.Lock()
	final := append([]int(nil), version...)
	verMu.Unlock()
	for lbn, v := range final {
		got, err := d.Read(uint64(lbn))
		if err != nil {
			t.Fatalf("final read block %d: %v", lbn, err)
		}
		if !bytes.Equal(got, chaosBlock(uint64(lbn), v, blockSize)) {
			t.Fatalf("final: block %d is not v%d", lbn, v)
		}
	}
	// The run must actually have exercised the server read caches.
	var hits int64
	for _, s := range servers {
		hits += int64(s.store.Stats().ReadHits)
	}
	if hits == 0 {
		t.Fatal("chaos run never hit the server read caches")
	}
	if cacheBytes == 0 {
		return
	}
	// Past the cache's capacity most misses must have been range reads:
	// had each filled its extent, the disk bytes foreground misses read
	// would come to nearly a fragment apiece. Readahead fills are
	// charged a whole fragment each, which only makes this harder.
	var misses, raLoads, diskBytes int64
	for _, s := range servers {
		st := s.store.Stats()
		misses += int64(st.ReadMisses)
		raLoads += int64(st.ReadaheadLoads)
		diskBytes += int64(st.ReadBytesDisk)
	}
	if fg := diskBytes - raLoads*chaosZipfFragment; misses == 0 || fg >= misses*chaosZipfFragment/2 {
		t.Fatalf("%d misses read %d disk bytes beside %d readahead loads: the range-read path was not exercised",
			misses, diskBytes, raLoads)
	}
}

// TestDegradedWritesNotSerializedBehindDeadServer is the fail-fast
// acceptance check: with one slow, dead server, writes bound for the
// healthy servers must not queue behind the dead one's latency once the
// breaker opens.
func TestDegradedWritesNotSerializedBehindDeadServer(t *testing.T) {
	const latency = 25 * time.Millisecond
	cfg := transport.ResilientConfig{
		MaxRetries:    -1, // isolate breaker behavior from retry backoff
		FailThreshold: 2,
		OpenTimeout:   time.Minute,
		Seed:          7,
	}
	c, flaky := chaosCluster(t, 4, cfg)
	defer c.Close()

	flaky[2].SetDown(true)
	flaky[2].SetLatency(latency)

	payload := bytes.Repeat([]byte{5}, 1024)
	start := time.Now()
	syncs := 0
	for i := 0; time.Since(start) < 8*latency; i++ {
		if _, err := c.Log().AppendBlock(7, payload, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i%40 == 39 {
			if err := c.Sync(); err != nil {
				t.Fatalf("sync %d: %v", i, err)
			}
			syncs++
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// The dead server saw at most FailThreshold slow calls before its
	// circuit opened; everything after failed fast. Were each store to
	// the dead server paying the injected latency, this many syncs of
	// 40 KB against 16 KB fragments could not fit in the time budget.
	h := c.Health()
	if len(h) != 4 {
		t.Fatalf("health reports %d servers, want 4", len(h))
	}
	dead := h[2]
	if dead.State != "open" {
		t.Fatalf("dead server's circuit is %q, want open", dead.State)
	}
	if dead.FastFails == 0 {
		t.Fatal("no calls failed fast at the open circuit")
	}
	if st := c.Log().Stats(); st.DegradedWrites == 0 {
		t.Fatalf("no degraded writes despite dead server: %+v", st)
	}
}

// TestConnectAddrsToleratesDeadServer: a client must be able to OPEN a
// degraded cluster, not just survive a server dying mid-session — reads
// reconstruct around the missing member and Health reports the outage.
func TestConnectAddrsToleratesDeadServer(t *testing.T) {
	var addrs []string
	var servers []*Server
	for i := 0; i < 4; i++ {
		s, err := NewServer(ServerOptions{DiskBytes: 32 << 20, FragmentSize: 64 << 10, Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	c1, err := ConnectAddrs(1, addrs, ClientOptions{FragmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("degraded connect"), 64)
	var blocks []BlockAddr
	for i := 0; i < 30; i++ {
		addr, err := c1.Log().AppendBlock(7, payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, addr)
	}
	if err := c1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	servers[2].Close()
	c2, err := ConnectAddrs(1, addrs, ClientOptions{
		FragmentSize: 64 << 10,
		Resilience:   ResilientConfig{RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("connect to degraded cluster: %v", err)
	}
	defer c2.Close()
	for i, addr := range blocks {
		got, err := c2.Log().Read(addr, 0, uint32(len(payload)))
		if err != nil {
			t.Fatalf("degraded read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("degraded read %d mismatch", i)
		}
	}
	h := c2.Health()
	if len(h) != 4 {
		t.Fatalf("health reports %d servers, want 4", len(h))
	}
	if h[2].Failures == 0 {
		t.Fatalf("dead server shows no failures: %+v", h[2])
	}
}

// TestClientCloseToleratesDownedServer is the regression test for
// Client.Close: shutting down over a dead server must not report an
// error — the local resources are released either way.
func TestClientCloseToleratesDownedServer(t *testing.T) {
	conns := make([]transport.ServerConn, 3)
	flaky := make([]*transport.Flaky, 3)
	for i := 0; i < 3; i++ {
		s, err := NewServer(ServerOptions{DiskBytes: 32 << 20, FragmentSize: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		flaky[i] = transport.NewFlaky(transport.NewLocal(ServerID(i+1), s.store, 1))
		conns[i] = flaky[i]
	}
	c, err := connect(1, conns, ClientOptions{FragmentSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Log().AppendBlock(7, []byte("still here"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	flaky[2].SetDown(true)
	if err := c.Close(); err != nil {
		t.Fatalf("close over a downed server: %v", err)
	}
}

// TestChaosRSDoubleFailure is the Reed–Solomon acceptance run: an
// RS(4,2) cluster (six servers, two parity shards per stripe) sustains
// mixed read/write/cleaner load while PAIRS of servers are killed
// simultaneously, with zero data loss. Each outage is followed by a
// rebuild that restores full two-failure tolerance for the next pair.
func TestChaosRSDoubleFailure(t *testing.T) {
	const (
		nServers  = 6
		nBlocks   = 60
		blockSize = 2048
	)
	cfg := transport.ResilientConfig{
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
		RetryMax:      4 * time.Millisecond,
		FailThreshold: 3,
		OpenTimeout:   40 * time.Millisecond,
		Seed:          11,
	}
	c, flaky := chaosClusterOpts(t, nServers, cfg, ClientOptions{ParityShards: 2, Codec: "rs"})
	defer c.Close()

	d, err := c.NewLogicalDisk(blockSize)
	if err != nil {
		t.Fatal(err)
	}
	cln := c.StartCleaner(0, CleanerConfig{UtilizationThreshold: 0.9, MaxStripesPerPass: 2, Force: true})

	content := make(map[uint64]int)
	write := func(lbn uint64, version int) {
		t.Helper()
		if err := d.Write(lbn, chaosBlock(lbn, version, blockSize)); err != nil {
			t.Fatalf("write block %d v%d: %v", lbn, version, err)
		}
		content[lbn] = version
	}
	verifyAll := func(stage string) {
		t.Helper()
		for lbn, v := range content {
			got, err := d.Read(lbn)
			if err != nil {
				t.Fatalf("%s: read block %d: %v", stage, lbn, err)
			}
			if !bytes.Equal(got, chaosBlock(lbn, v, blockSize)) {
				t.Fatalf("%s: block %d corrupt", stage, lbn)
			}
		}
	}

	for i := 0; i < nBlocks; i++ {
		write(uint64(i), 0)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1234))
	version := 1

	// Kill pairs covering every server position at least twice. Both
	// members of each pair go down SIMULTANEOUSLY: every stripe written
	// through the outage loses up to two members, which only the m=2
	// codec covers.
	pairs := [][2]int{{0, 1}, {2, 3}, {4, 5}, {0, 3}, {1, 4}, {2, 5}}
	for _, pair := range pairs {
		flaky[pair[0]].SetDown(true)
		flaky[pair[1]].SetDown(true)
		// Five blocks, then a Sync: they fill less than a fragment, so the
		// Sync closes a stripe with one data member and three empty ones
		// and the outage hits a short stripe. The 35 blocks after it fill
		// at least one whole stripe, which stores a member on every
		// server, so each pair costs some stripe two members.
		for i := 0; i < 40; i++ {
			write(uint64(rng.Intn(nBlocks)), version)
			version++
			if i == 4 {
				if err := d.Sync(); err != nil {
					t.Fatalf("short sync with servers %v down: %v", pair, err)
				}
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatalf("sync with servers %v down: %v", pair, err)
		}
		if _, err := cln.CleanOnce(); err != nil {
			t.Fatalf("clean with servers %v down: %v", pair, err)
		}
		verifyAll("during double outage")
		if st := c.Log().Stats(); st.MinSpareRedundancy != 0 {
			t.Fatalf("MinSpareRedundancy = %d during double outage, want 0", st.MinSpareRedundancy)
		}

		flaky[pair[0]].SetDown(false)
		flaky[pair[1]].SetDown(false)
		time.Sleep(3 * cfg.OpenTimeout)
		for _, victim := range pair {
			if _, err := c.RebuildServer(ServerID(victim + 1)); err != nil {
				t.Fatalf("rebuild server %d: %v", victim+1, err)
			}
		}
	}
	if stats := c.Log().Stats(); stats.DegradedWrites == 0 {
		t.Fatalf("chaos run never exercised degraded writes: %+v", stats)
	}

	// Quiesce and prove full redundancy came back everywhere.
	time.Sleep(3 * cfg.OpenTimeout)
	if _, err := cln.CleanOnce(); err != nil {
		t.Fatalf("final clean: %v", err)
	}
	for i := 0; i < nServers; i++ {
		if _, err := c.RebuildServer(ServerID(i + 1)); err != nil {
			t.Fatalf("final rebuild of server %d: %v", i+1, err)
		}
	}
	if left := c.Log().DegradedFIDs(); len(left) != 0 {
		t.Fatalf("degraded fragments remain after rebuild: %v", left)
	}
	if st := c.Log().Stats(); st.MinSpareRedundancy != 2 {
		t.Fatalf("MinSpareRedundancy = %d after full rebuild, want 2", st.MinSpareRedundancy)
	}
	verifyAll("final")
	for _, s := range c.Log().Usage().Stripes() {
		if u, _ := c.Log().Usage().Get(s); !u.Closed {
			continue
		}
		if err := c.Log().VerifyStripe(s); err != nil {
			t.Fatalf("stripe %d fails verification after rebuild: %v", s, err)
		}
	}
}

// TestChaosQoSIsolationUnderFailure is the QoS chaos run: a greedy
// tenant hammers raw fragment stores through small admission bounds
// (provoking StatusBusy sheds and client busy-retries) while a light
// tenant runs its full striped-log workload — and mid-run a server is
// killed, restored, and rebuilt. The assertions are the QoS tier's
// safety and liveness story: the light tenant completes every phase
// under sustained overload (no starvation — a stall here hangs the
// test), nothing either tenant wrote is lost, sheds really happened,
// and shed requests were retried to success rather than surfacing.
func TestChaosQoSIsolationUnderFailure(t *testing.T) {
	const (
		nServers      = 3
		blockSize     = 2048
		lightID       = ClientID(1)
		greedyID      = ClientID(2)
		greedyWriters = 6
	)
	cfg := transport.ResilientConfig{
		MaxRetries:    2,
		RetryBase:     200 * time.Microsecond,
		RetryMax:      2 * time.Millisecond,
		BusyRetries:   12,
		FailThreshold: 3,
		OpenTimeout:   40 * time.Millisecond,
		Seed:          11,
	}
	qos := server.QoSConfig{
		Slots:   1,
		Quantum: 16 << 10,
		Classes: map[wire.ClientID]server.ClassConfig{
			lightID:  {Weight: 8},
			greedyID: {Weight: 1, MaxQueuedOps: 1},
		},
	}

	// Servers with the QoS tier on; separate fault-injection layers per
	// principal (the transports are per-client) that are killed together.
	servers := make([]*Server, nServers)
	lightFlaky := make([]*transport.Flaky, nServers)
	greedyFlaky := make([]*transport.Flaky, nServers)
	lightConns := make([]transport.ServerConn, nServers)
	for i := 0; i < nServers; i++ {
		s, err := NewServer(ServerOptions{DiskBytes: 64 << 20, FragmentSize: 16 << 10, QoS: &qos})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers[i] = s
		lightFlaky[i] = transport.NewFlaky(transport.NewLocal(ServerID(i+1), s.store, lightID))
		greedyFlaky[i] = transport.NewFlaky(transport.NewLocal(ServerID(i+1), s.store, greedyID))
		lightConns[i] = transport.NewResilient(lightFlaky[i], cfg)
	}
	setDown := func(i int, down bool) {
		lightFlaky[i].SetDown(down)
		greedyFlaky[i].SetDown(down)
	}

	// Each greedy writer gets its own resilient conns (own breaker and
	// backoff stream) over the shared per-server fault layer.
	greedyConns := make([][]transport.ServerConn, greedyWriters)
	for w := range greedyConns {
		greedyConns[w] = make([]transport.ServerConn, nServers)
		for i := range greedyConns[w] {
			wcfg := cfg
			wcfg.Seed = int64(100 + w*nServers + i)
			greedyConns[w][i] = transport.NewResilient(greedyFlaky[i], wcfg)
		}
	}

	c, err := connect(lightID, lightConns, ClientOptions{FragmentSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d, err := c.NewLogicalDisk(blockSize)
	if err != nil {
		t.Fatal(err)
	}

	content := make(map[uint64]int) // light tenant: lbn → latest version
	greedyStored := make([]map[FID][]byte, greedyWriters)
	for w := range greedyStored {
		greedyStored[w] = make(map[FID][]byte)
	}
	var greedySeq uint64 // strictly increasing FID sequence per writer ×1e6

	// phase runs the light tenant's fixed workload (writes + sync +
	// read-verify) against sustained greedy overload; the greedy loops
	// only stop once the light tenant finishes, so phase completion IS
	// the starvation check.
	version := 1
	phase := func(stage string) {
		t.Helper()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < greedyWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(version*100 + w)))
				base := atomic.AddUint64(&greedySeq, 1) << 20
				for n := uint64(0); ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					si := rng.Intn(nServers)
					fid := wire.MakeFID(greedyID, base+n)
					body := chaosBlock(uint64(fid), w, 1024)
					err := greedyConns[w][si].Store(fid, body, false, nil)
					switch {
					case err == nil, wire.IsStatus(err, wire.StatusExists):
						greedyStored[w][fid] = body
					default:
						// Dead server or exhausted busy budget: the
						// request was not served; the writer moves on.
					}
				}
			}(w)
		}
		for i := 0; i < 32; i++ {
			lbn := uint64(i)
			if err := d.Write(lbn, chaosBlock(lbn, version, blockSize)); err != nil {
				t.Errorf("%s: light write %d: %v", stage, lbn, err)
			}
			content[lbn] = version
		}
		if err := d.Sync(); err != nil {
			t.Errorf("%s: light sync: %v", stage, err)
		}
		for lbn, v := range content {
			got, err := d.Read(lbn)
			if err != nil {
				t.Errorf("%s: light read %d: %v", stage, lbn, err)
			} else if !bytes.Equal(got, chaosBlock(lbn, v, blockSize)) {
				t.Errorf("%s: light block %d corrupt", stage, lbn)
			}
		}
		close(stop)
		wg.Wait()
		version++
	}

	phase("healthy overload")

	// Kill a server mid-overload; the light tenant must still complete
	// (degraded writes), then restore and rebuild it.
	const victim = 1
	setDown(victim, true)
	phase("server down")
	setDown(victim, false)
	time.Sleep(3 * cfg.OpenTimeout)
	if _, err := c.RebuildServer(ServerID(victim + 1)); err != nil {
		t.Fatalf("rebuild server %d: %v", victim+1, err)
	}

	phase("after rebuild")

	// Zero data loss, both tenants. The light tenant re-verifies through
	// its log; every fragment a greedy writer recorded as stored must
	// read back intact from whichever server accepted it.
	for lbn, v := range content {
		got, err := d.Read(lbn)
		if err != nil {
			t.Fatalf("final light read %d: %v", lbn, err)
		}
		if !bytes.Equal(got, chaosBlock(lbn, v, blockSize)) {
			t.Fatalf("final: light block %d corrupt", lbn)
		}
	}
	verify := make([]transport.ServerConn, nServers)
	for i := range verify {
		vcfg := cfg
		vcfg.Seed = int64(1000 + i)
		verify[i] = transport.NewResilient(greedyFlaky[i], vcfg)
	}
	verified := 0
	for w := range greedyStored {
		for fid, want := range greedyStored[w] {
			var got []byte
			var rerr error
			for i := 0; i < nServers; i++ {
				if got, rerr = verify[i].Read(fid, 0, uint32(len(want))); rerr == nil {
					break
				}
			}
			if rerr != nil {
				t.Fatalf("greedy fragment %v lost: %v", fid, rerr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("greedy fragment %v corrupt", fid)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("greedy tenant recorded no stored fragments; overload never ran")
	}

	// The QoS tier must actually have engaged: admission shed greedy
	// requests, clients retried them (busy retries, breaker untouched by
	// sheds), and the servers account both tenants.
	var sheds, lightOps uint64
	for _, s := range servers {
		for _, tn := range s.store.Stats().Tenants {
			switch tn.Client {
			case greedyID:
				sheds += tn.Sheds
			case lightID:
				lightOps += tn.Ops
			}
		}
	}
	if sheds == 0 {
		t.Fatal("no greedy sheds: overload never tripped admission control")
	}
	if lightOps == 0 {
		t.Fatal("servers did not account the light tenant")
	}
	var busy int64
	for w := range greedyConns {
		for _, h := range transport.HealthOf(greedyConns[w]) {
			busy += h.Busy
		}
	}
	if busy == 0 {
		t.Fatal("sheds observed server-side but no client busy-retries")
	}
}
