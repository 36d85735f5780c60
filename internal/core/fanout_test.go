package core

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestConcurrentReadsShareOneReconstruction proves the engine's
// singleflight: N readers racing for the same lost fragment must pay for
// exactly one stripe reconstruction, not N. Latency on the surviving
// servers holds the first flight open long enough that every reader
// arrives while it is still in progress.
func TestConcurrentReadsShareOneReconstruction(t *testing.T) {
	c := newTestCluster(t, 4)
	l, _ := c.open(t, Config{})
	defer l.Close()

	var addrs []BlockAddr
	var blocks [][]byte
	for i := 0; i < 60; i++ {
		b := blockPattern(i, 600)
		addrs = append(addrs, mustAppend(t, l, 7, b))
		blocks = append(blocks, b)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	// Kill the server holding the first block's fragment and slow the
	// survivors so the reconstruction flight stays open.
	fid := addrs[0].FID
	sid := serverOf(l, fid)
	c.flaky[sid-1].SetDown(true)
	for _, fl := range c.flaky {
		fl.SetLatency(50 * time.Millisecond)
	}
	defer func() {
		for _, fl := range c.flaky {
			fl.SetLatency(0)
		}
	}()

	const readers = 8
	start := make(chan struct{})
	errs := make([]error, readers)
	got := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = l.Read(addrs[0], 0, 600)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], blocks[0]) {
			t.Fatalf("reader %d: data mismatch", i)
		}
	}
	if n := l.Stats().Reconstructions; n != 1 {
		t.Fatalf("%d concurrent readers caused %d reconstructions, want exactly 1", readers, n)
	}
}

// TestReconstructionFanOutLatency injects per-server latency and checks
// that reconstructing a width-8 stripe member costs about one round trip
// (max over members), not the sum of seven sequential fetches — the
// whole point of the engine's parallel gather.
func TestReconstructionFanOutLatency(t *testing.T) {
	const lat = 50 * time.Millisecond
	c := newTestCluster(t, 8)
	l, _ := c.open(t, Config{})
	defer l.Close()

	var addrs []BlockAddr
	for i := 0; i < 80; i++ {
		addrs = append(addrs, mustAppend(t, l, 7, blockPattern(i, 600)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	fid := addrs[0].FID
	sid := serverOf(l, fid)
	c.flaky[sid-1].SetDown(true)
	for _, fl := range c.flaky {
		fl.SetLatency(lat)
	}
	defer func() {
		for _, fl := range c.flaky {
			fl.SetLatency(0)
		}
	}()

	t0 := time.Now()
	h, _, err := l.FetchFragment(fid)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatalf("reconstruct: %v", err)
	}
	if h.FID != fid {
		t.Fatalf("header FID = %v, want %v", h.FID, fid)
	}
	if l.Stats().Reconstructions != 1 {
		t.Fatalf("Reconstructions = %d, want 1", l.Stats().Reconstructions)
	}
	// The parallel path pays ~4 latency hops: the failed direct read,
	// the sibling-header probe, then one header and one payload round
	// trip shared by all 7 gathered members. A serial member loop pays
	// those same 2 fetch round trips per member: ≥ 14 hops for the
	// gather alone. Assert under half the serial gather floor.
	if serialFloor := 7 * 2 * lat; elapsed >= serialFloor/2 {
		t.Fatalf("reconstruction took %v; serial gather floor is %v — members were not fetched in parallel", elapsed, serialFloor)
	}
}
