package wire

import (
	"math/bits"
	"sync"
)

// Buffer pool: size-binned free lists for fragment-sized bodies. The wire
// path moves ~1 MB payloads on every store and read RPC; allocating each
// one fresh made the garbage collector a party to every fragment transfer.
// readFrame, the server's store/read paths, the client's fetch paths
// (fragio/core) and the client's write path (core's fragment and parity
// frames, held until their stores are acked) all draw from and return
// to this pool.
//
// Ownership rules (documented in DESIGN.md §3.9):
//
//   - GetBuffer hands out a buffer owned exclusively by the caller, taken
//     only from the request's own size bin or the one above — never a
//     much larger pooled buffer.
//   - PutBuffer recycles a buffer; the caller must not touch it afterward.
//     Releasing is always optional — a buffer that escapes (e.g. data
//     returned to the application) is simply collected by the GC and the
//     pool takes a miss.
//   - A subslice may be released on behalf of its backing array (the
//     transport releases response payloads that alias a frame body); the
//     pool bins by capacity, so partial views recycle what they can see.
//
// A hand-rolled free list is used instead of sync.Pool because the
// allocation guarantees are load-bearing: the AllocsPerRun regression
// tests pin the wire path to a small constant allocation count, and
// sync.Pool's GC-driven eviction makes that nondeterministic.
const (
	// minPoolBuffer is the smallest capacity worth pooling; shorter
	// buffers are cheap enough to allocate directly.
	minPoolBuffer = 4 << 10
	// poolBins spans capacities from minPoolBuffer (4 KB) up past the
	// largest fragment frames (bin 11 starts at 8 MB).
	poolBins = 12
	// maxPerBin bounds retained buffers per bin. It must cover a fully
	// multiplexed transport's in-flight depth (pool size × the
	// transport's per-connection bound, transport.MaxInFlight, per
	// server on both ends) or high-concurrency steady state degrades to
	// allocation; in practice one size class (the fragment size)
	// dominates, so the worst case stays a few dozen MB.
	maxPerBin = 64
)

type bufferBin struct {
	mu   sync.Mutex
	bufs [][]byte // guarded by mu
}

var bufferPool [poolBins]bufferBin

// binBase returns the smallest capacity binned at index i.
func binBase(i int) int { return minPoolBuffer << i }

// binFor returns the bin index for a buffer of capacity c: the largest i
// with binBase(i) <= c, or -1 when c is below the pooled range.
func binFor(c int) int {
	if c < minPoolBuffer {
		return -1
	}
	i := bits.Len(uint(c)) - bits.Len(uint(minPoolBuffer))
	if i >= poolBins {
		i = poolBins - 1
	}
	return i
}

// take pops a buffer with capacity >= n from the bin, or nil.
func (b *bufferBin) take(n int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	for j := len(b.bufs) - 1; j >= 0; j-- {
		if p := b.bufs[j]; cap(p) >= n {
			b.bufs[j] = b.bufs[len(b.bufs)-1]
			b.bufs[len(b.bufs)-1] = nil
			b.bufs = b.bufs[:len(b.bufs)-1]
			return p
		}
	}
	return nil
}

func (b *bufferBin) put(p []byte) {
	b.mu.Lock()
	if len(b.bufs) < maxPerBin {
		b.bufs = append(b.bufs, p)
	}
	b.mu.Unlock()
}

// GetBuffer returns a buffer of length n, recycled from the pool when a
// fit is available. The caller owns it exclusively until PutBuffer.
func GetBuffer(n int) []byte {
	if n <= 0 {
		return nil
	}
	if i := binFor(n); i >= 0 {
		// The buffer's own bin may hold a fit (bins span [base, 2·base),
		// so entries there need a capacity check); the bin above fits by
		// construction and is where GetBuffer's power-of-two rounding
		// files a fresh buffer. The search stops there: a buffer from
		// further up is at least twice the request, and a small read
		// that escapes (into a block cache, say) would pin a whole
		// fragment-sized array for as long as it lives.
		for top := min(i+1, poolBins-1); i <= top; i++ {
			if p := bufferPool[i].take(n); p != nil {
				return p[:n]
			}
		}
	}
	// Round capacity up to a power of two so the buffer re-bins cleanly
	// and subslice releases (which shave a few header bytes off the
	// visible capacity) stay findable in the bin below.
	c := n
	if c < minPoolBuffer {
		return make([]byte, n)
	}
	if c&(c-1) != 0 {
		c = 1 << bits.Len(uint(c))
	}
	return make([]byte, n, c)
}

// PutBuffer recycles p's backing array. nil and small buffers are
// ignored, so callers can release unconditionally.
func PutBuffer(p []byte) {
	c := cap(p)
	i := binFor(c)
	if i < 0 {
		return
	}
	bufferPool[i].put(p[:0:c])
}
