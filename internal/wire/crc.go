package wire

// CRC-32 (IEEE) combination, after zlib's crc32_combine: the checksum of a
// concatenation follows from the checksums of its pieces and the length
// of the second piece, in time logarithmic in that length. A server that
// already knows the CRC of a cached payload uses it to checksum a response
// frame without reading the payload again (DESIGN.md §3.9).
//
// With crc the standard (pre- and post-inverted) CRC-32,
//
//	crc(a‖b) = crc(a)·x^(8·len b) mod P  ⊕  crc(b)
//
// in GF(2)[x], so removing a known prefix is the same shift and XOR.

// crcPoly is the reflected IEEE polynomial; bit 31 of a value is x^0.
const crcPoly = 0xedb88320

// crcMulMod returns a·b mod P for reflected polynomials a and b.
func crcMulMod(a, b uint32) uint32 {
	var p uint32
	for ; a != 0; a <<= 1 {
		p ^= b & -(a >> 31) // b is b·x^j here: add it if a has the x^j term
		b = b>>1 ^ crcPoly&-(b&1)
	}
	return p
}

// crcXPow[i][d] is x^(8·d·16^i) mod P, so a shift by n bytes costs one
// multiplication per nonzero hex digit of n: three for a 1 MB payload.
var crcXPow = func() (t [16][16]uint32) {
	x8 := uint32(1) << 23 // x^8: bit 31 is x^0
	for i := range t {
		t[i][0] = 1 << 31
		t[i][1] = x8
		for d := 2; d < 16; d++ {
			t[i][d] = crcMulMod(t[i][d-1], x8)
		}
		x8 = crcMulMod(t[i][15], x8)
	}
	return t
}()

// crcShift returns crc·x^(8n) mod P for n >= 0: the contribution of a
// prefix whose checksum is crc once n more bytes follow it.
func crcShift(crc uint32, n int) uint32 {
	for i := 0; n != 0; i, n = i+1, n>>4 {
		if d := n & 15; d != 0 {
			crc = crcMulMod(crcXPow[i][d], crc)
		}
	}
	return crc
}

// CombineCRC returns the CRC-32 (IEEE) of a‖b given crcA = crc(a),
// crcB = crc(b) and lenB = len(b). It does not allocate and takes well
// under a microsecond whatever the length.
func CombineCRC(crcA, crcB uint32, lenB int) uint32 {
	return crcShift(crcA, lenB) ^ crcB
}

// SuffixCRC returns the CRC-32 (IEEE) of b given crcAB = crc(a‖b),
// crcA = crc(a) and lenB = len(b): the inverse of CombineCRC.
func SuffixCRC(crcAB, crcA uint32, lenB int) uint32 {
	return crcShift(crcA, lenB) ^ crcAB
}
