// Package erasure is the pluggable stripe-redundancy layer: given the k
// data payloads of a stripe it produces m parity payloads, and given any
// k of the n = k+m members it reconstructs the rest. Two codes implement
// the interface — the paper's rotating single XOR parity (§2.1.2), kept
// as the faithful baseline and ablation, and a systematic GF(2^8)
// Reed–Solomon code that survives any m simultaneous losses. The package
// is stdlib-only and deliberately knows nothing about fragments, headers,
// or servers: callers hand it byte slices ordered by shard (data shards
// 0..k-1, then parity shards 0..m-1) and own the mapping from stripe
// member indices to shard ordinals.
//
// The name avoids colliding with internal/codec, which is the payload
// transform layer (compression etc.), an unrelated axis.
package erasure

import "encoding/binary"

// GF(2^8) arithmetic with the AES-adjacent primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d) — the field every practical RS
// storage code uses, so test vectors from the literature apply directly.
//
// Multiplication goes through log/exp tables. The hot path multiplies a
// whole shard by one coefficient and XORs it into an accumulator
// (mulSliceXor). On amd64 CPUs with AVX2 that runs a split-nibble kernel
// (gf_amd64.s): c·x = c·(x&15) ⊕ c·(x&0xf0), so two 16-entry product
// tables per coefficient (gfNibble) and VPSHUFB look up 32 bytes per
// instruction. The kernel is chosen at run time from CPUID. Everywhere
// else — tails shorter than 64 bytes, CPUs without AVX2, other
// architectures — a scalar loop over one 256-byte row of the full product
// table does the work; it is also the tests' reference. The c==1 case
// drops to the word-at-a-time XOR loop the stripe parity path has always
// used.

const fieldPoly = 0x11d

var (
	gfExp [512]byte // exp table doubled so mul needs no modular reduction
	gfLog [256]byte
	gfMul [256][256]byte
	// gfNibble[c] holds c·x for x = 0..15 (low nibbles) and for
	// x = 0x00, 0x10, ..0xf0 (high nibbles): the vector kernel's tables.
	gfNibble [256][2][16]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= fieldPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfMul[a][b] = gfExp[int(gfLog[a])+int(gfLog[b])]
		}
	}
	for c := range gfNibble {
		for x := 0; x < 16; x++ {
			gfNibble[c][0][x] = gfMul[c][x]
			gfNibble[c][1][x] = gfMul[c][x<<4]
		}
	}
}

// mul returns a·b in GF(2^8).
func mul(a, b byte) byte { return gfMul[a][b] }

// inv returns a^-1 in GF(2^8). a must be nonzero.
func inv(a byte) byte {
	if a == 0 {
		panic("erasure: inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// xorSliceInto accumulates src into dst (dst ^= src), word at a time for
// the bulk — the same inner loop core's stripe parity has always used.
// src may be shorter than dst; missing bytes are zero (the padding rule
// for short shards).
func xorSliceInto(dst, src []byte) {
	n := len(src)
	if n > len(dst) {
		n = len(dst)
	}
	dst = dst[:n]
	src = src[:n]
	for len(dst) >= 8 {
		d := binary.LittleEndian.Uint64(dst)
		s := binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst, d^s)
		dst = dst[8:]
		src = src[8:]
	}
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// mulSliceXor accumulates c·src into dst (dst ^= c·src). It is the
// encode/decode inner loop: the vector kernel where the CPU has one, the
// scalar loop for the rest, with the identity and zero coefficients
// short-circuited to the XOR loop and a no-op respectively.
func mulSliceXor(c byte, dst, src []byte) {
	switch c {
	case 0:
		return
	case 1:
		xorSliceInto(dst, src)
		return
	}
	n := min(len(src), len(dst))
	done := mulSliceXorVec(c, dst[:n], src[:n])
	mulSliceXorScalar(c, dst[done:n], src[done:n])
}

// mulSliceXorScalar is mulSliceXor one byte at a time through the
// coefficient's product-table row. len(dst) must be at least len(src).
func mulSliceXorScalar(c byte, dst, src []byte) {
	row := &gfMul[c]
	dst = dst[:len(src)]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}
