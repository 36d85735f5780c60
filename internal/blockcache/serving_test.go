package blockcache

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"swarm/internal/core"
)

// gatedReader blocks every Read until the gate opens, and counts the
// reads that actually reached it — the instrument for proving
// singleflight collapses concurrent misses into one fill.
type gatedReader struct {
	gate  chan struct{}
	reads atomic.Int64
	data  []byte
}

func (g *gatedReader) Read(addr core.BlockAddr, off, n uint32) ([]byte, error) {
	g.reads.Add(1)
	<-g.gate
	out := make([]byte, n)
	copy(out, g.data[off:off+n])
	return out, nil
}

// TestSingleflightOneFill is the regression test for the N-identical-fills
// bug: N concurrent readers of one uncached block must produce exactly one
// lower-level read, with every reader receiving the shared result.
func TestSingleflightOneFill(t *testing.T) {
	const readers = 32
	g := &gatedReader{gate: make(chan struct{}), data: bytes.Repeat([]byte{7}, 128)}
	c := New(g, 1<<20)

	var wg sync.WaitGroup
	results := make([][]byte, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.ReadBlock(addr(0), 128, 0, 128)
		}(i)
	}
	// Wait until the first (and only) fill is parked in the lower reader,
	// then let it finish. The remaining readers must be queued on the
	// flight, not in the reader.
	for g.reads.Load() == 0 {
		runtime.Gosched()
	}
	close(g.gate)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], g.data) {
			t.Fatalf("reader %d: data mismatch", i)
		}
	}
	if n := g.reads.Load(); n != 1 {
		t.Fatalf("lower reads = %d, want 1 (singleflight broken)", n)
	}
	if f := c.Fills(); f != 1 {
		t.Fatalf("fills = %d, want 1", f)
	}
	// Readers scheduled after the fill completed count as hits; everyone
	// else as a miss. Either way the total adds up and only one filled.
	hits, misses, _ := c.Stats()
	if hits+misses != readers {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, readers)
	}
}

// TestLateMissFindsLandedFill is the regression test for the fill race
// behind TestSingleflightOneFill's rare failure: a reader misses in
// lookup, and before it takes flightMu the first fill caches the block
// and retires its flight. Finding no flight, the reader used to start a
// second fill. The test parks a reader in exactly that window by holding
// flightMu, lands the fill, then lets the reader go: it must take the
// cached block without a lower read.
func TestLateMissFindsLandedFill(t *testing.T) {
	g := &gatedReader{gate: make(chan struct{}), data: bytes.Repeat([]byte{7}, 128)}
	close(g.gate) // a fill, if one starts, does not block
	c := New(g, 1<<20)

	c.flightMu.Lock()
	type result struct {
		data []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		data, err := c.ReadBlock(addr(0), 128, 0, 128)
		done <- result{data, err}
	}()
	// The miss is counted after lookup fails and before flightMu is
	// taken: from here the reader waits on the lock this test holds.
	for c.misses.Load() == 0 {
		runtime.Gosched()
	}
	// Land a fill the way ReadBlock does: the block is cached and no
	// flight for it remains.
	c.Put(addr(0), append([]byte(nil), g.data...))
	c.flightMu.Unlock()

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.data, g.data) {
		t.Fatal("data mismatch")
	}
	if n := g.reads.Load(); n != 0 {
		t.Fatalf("lower reads = %d, want 0: the late reader refilled a cached block", n)
	}
}

// TestSingleflightErrorShared: a failing fill must propagate its error to
// every waiter and leave no flight entry behind.
func TestSingleflightErrorShared(t *testing.T) {
	f := newFake(0, 0) // empty lower: every read errors
	c := New(f, 1<<20)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.ReadBlock(addr(3), 64, 0, 64); err == nil {
				t.Error("missing block read succeeded")
			}
		}()
	}
	wg.Wait()
	c.flightMu.Lock()
	n := len(c.flights)
	c.flightMu.Unlock()
	if n != 0 {
		t.Fatalf("%d flights leaked", n)
	}
}

// TestHitPathZeroAlloc pins the hot-hit path at zero allocations: a hit
// returns a subslice of the cached block, nothing else.
func TestHitPathZeroAlloc(t *testing.T) {
	f := newFake(1, 4096)
	c := New(f, 1<<20)
	if _, err := c.ReadBlock(addr(0), 4096, 0, 4096); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.ReadBlock(addr(0), 4096, 0, 4096); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestShardsFor pins the capacity→shards policy: tiny caches get one
// shard (exact global LRU), serving-scale caches get the full fan-out.
func TestShardsFor(t *testing.T) {
	cases := []struct {
		capBytes int64
		want     int
	}{
		{250, 1},
		{256 << 10, 1},
		{512 << 10, 2},
		{1 << 20, 4},
		{4 << 20, 16},
		{64 << 20, 16},
	}
	for _, tc := range cases {
		if got := shardsFor(tc.capBytes); got != tc.want {
			t.Errorf("shardsFor(%d) = %d, want %d", tc.capBytes, got, tc.want)
		}
	}
}

// BenchmarkHotHitParallel measures 64 readers hammering cached blocks —
// the lock-convoy scenario the sharded LRU exists for. Run with
// -benchtime and compare ns/op against a single-shard build to see the
// convoy; the allocation report must stay at 0 allocs/op.
func BenchmarkHotHitParallel(b *testing.B) {
	const blocks = 64
	f := newFake(blocks, 4096)
	c := New(f, 64<<20) // serving-scale: full shard fan-out
	for i := 0; i < blocks; i++ {
		if _, err := c.ReadBlock(addr(i), 4096, 0, 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.SetParallelism(8) // 8 × GOMAXPROCS goroutines ≥ 64 readers
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.ReadBlock(addr(i%blocks), 4096, 0, 4096); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
