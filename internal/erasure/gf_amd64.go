package erasure

// The amd64 multiply-accumulate kernel (gf_amd64.s): split-nibble table
// lookups with VPSHUFB, 64 bytes per iteration. It is selected at run
// time from CPUID; without AVX2 every byte takes the scalar loop.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func mulXorAVX2(tbl *[2][16]byte, dst, src []byte)

var hasAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0 enabling the
// SSE and AVX state components).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// mulSliceXorVec runs the vector kernel over the longest 64-byte
// multiple of src (len(dst) >= len(src)) and returns how many bytes it
// covered; the caller finishes the tail with the scalar loop.
func mulSliceXorVec(c byte, dst, src []byte) int {
	n := len(src) &^ 63
	if !hasAVX2 || n == 0 {
		return 0
	}
	mulXorAVX2(&gfNibble[c], dst[:n], src[:n])
	return n
}
