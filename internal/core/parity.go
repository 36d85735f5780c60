package core

import (
	"swarm/internal/erasure"
	"swarm/internal/wire"
)

// parityAccum incrementally computes a stripe's parity payloads as data
// fragments are sealed, so parity is ready the moment the stripe closes
// ("a stripe's parity is computed as its fragments are written", §2.1.2).
// With the erasure layer a stripe carries m parity buffers; the classic
// single rotating XOR parity is the m=1 case.
//
// Each accumulator is the payload of a pooled, header-prefixed frame, so
// the code encodes straight into what ships: the stripe's first add
// takes m frames from the wire pool, and take hands them to the caller,
// who fills in the headers and ships them. A pooled frame holds
// whatever its last user left, so an add clears only the bytes it is
// about to fold past the stripe's high-water mark; a short stripe (a
// Sync after a few KB) clears a few KB, not m whole payloads.
type parityAccum struct {
	code        erasure.Code
	payloadSize int
	frames      [][]byte // m pool frames, HeaderSize+payloadSize each; nil between stripes
	bufs        [][]byte // frames[j][HeaderSize:], what the code accumulates into
	hw          int      // bufs[j][:hw] holds this stripe's parity; beyond it is stale
	lens        [MaxWidth]uint32
}

func newParityAccum(code erasure.Code, payloadSize int) *parityAccum {
	return &parityAccum{code: code, payloadSize: payloadSize, bufs: make([][]byte, code.ParityShards())}
}

// open takes the stripe's m frames from the pool.
func (p *parityAccum) open() {
	p.frames = make([][]byte, len(p.bufs))
	for j := range p.frames {
		p.frames[j] = wire.GetBuffer(HeaderSize + p.payloadSize)
		p.bufs[j] = p.frames[j][HeaderSize:]
	}
}

// add folds one sealed data payload into the accumulators. index is the
// member's position within the stripe; di is its data-shard ordinal
// (rank among the stripe's non-parity slots).
func (p *parityAccum) add(di, index int, payload []byte) {
	if p.frames == nil {
		p.open()
	}
	if n := len(payload); n > p.hw {
		for _, buf := range p.bufs {
			clear(buf[p.hw:n])
		}
		p.hw = n
	}
	p.code.AddData(di, payload, p.bufs)
	p.lens[index] = uint32(len(payload))
}

// take returns the stripe's m parity frames, each with room for its
// header in front of a payload whose first n bytes are the parity, and
// resets the accumulator for the next stripe. The frames are the
// caller's: each goes back to the pool once its store completes.
func (p *parityAccum) take() (frames [][]byte, n int) {
	if p.frames == nil {
		p.open()
	}
	frames, n = p.frames, p.hw
	p.frames = nil
	clear(p.bufs)
	p.hw = 0
	p.lens = [MaxWidth]uint32{}
	return frames, n
}
