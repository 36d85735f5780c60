package core

import "swarm/internal/erasure"

// parityAccum incrementally computes a stripe's parity payloads as data
// fragments are sealed, so parity is ready the moment the stripe closes
// ("a stripe's parity is computed as its fragments are written", §2.1.2).
// With the erasure layer a stripe carries m parity buffers; the classic
// single rotating XOR parity is the m=1 case.
type parityAccum struct {
	code erasure.Code
	bufs [][]byte // m accumulators, each payloadSize bytes
	lens [MaxWidth]uint32
}

func newParityAccum(code erasure.Code, payloadSize int) *parityAccum {
	p := &parityAccum{code: code, bufs: make([][]byte, code.ParityShards())}
	for j := range p.bufs {
		p.bufs[j] = make([]byte, payloadSize)
	}
	return p
}

// add folds one sealed data payload into the accumulators. index is the
// member's position within the stripe; di is its data-shard ordinal
// (rank among the stripe's non-parity slots).
func (p *parityAccum) add(di, index int, payload []byte) {
	p.code.AddData(di, payload, p.bufs)
	p.lens[index] = uint32(len(payload))
}

// reset clears the accumulator for the next stripe.
func (p *parityAccum) reset() {
	for _, buf := range p.bufs {
		for i := range buf {
			buf[i] = 0
		}
	}
	p.lens = [MaxWidth]uint32{}
}
