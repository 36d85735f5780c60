#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulXorAVX2(tbl *[2][16]byte, dst, src []byte)
//
// dst[i] ^= tbl[0][src[i]&15] ^ tbl[1][src[i]>>4] for the first
// len(src)&^63 bytes, 64 bytes (two YMM registers) per iteration.
// VPSHUFB looks up 32 nibbles at once in a 16-entry table replicated
// into both 128-bit lanes.
TEXT ·mulXorAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $6, CX
	JZ   done

	VBROADCASTI128 (AX), Y0   // low-nibble products
	VBROADCASTI128 16(AX), Y1 // high-nibble products
	MOVQ $0x0f, DX
	MOVQ DX, X2
	VPBROADCASTB X2, Y2       // nibble mask

loop:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y4
	VPSRLQ  $4, Y3, Y5
	VPSRLQ  $4, Y4, Y6
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPAND   Y2, Y5, Y5
	VPAND   Y2, Y6, Y6
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y0, Y4
	VPSHUFB Y5, Y1, Y5
	VPSHUFB Y6, Y1, Y6
	VPXOR   Y3, Y5, Y3
	VPXOR   Y4, Y6, Y4
	VPXOR   (DI), Y3, Y3
	VPXOR   32(DI), Y4, Y4
	VMOVDQU Y3, (DI)
	VMOVDQU Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop

	VZEROUPPER

done:
	RET
