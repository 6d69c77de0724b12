//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, subLeaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subLeaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulAddAVX2(nib *[32]byte, src, dst []byte)
//
// Per 32 source bytes s: dst ^= lo[s & 15] ^ hi[s >> 4], with lo and hi the
// two 16-byte halves of nib broadcast to both lanes (VPSHUFB looks up within
// each 128-bit lane).
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ nib+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	SHRQ $5, CX
	JZ   muldone
	VBROADCASTI128 (AX), Y0   // lo
	VBROADCASTI128 16(AX), Y1 // hi
	MOVQ $15, AX
	MOVQ AX, X2
	VPBROADCASTB X2, Y2       // 0x0f in every byte

mulloop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mulloop
	VZEROUPPER

muldone:
	RET

// func xorAVX2(src, dst []byte)
TEXT ·xorAVX2(SB), NOSPLIT, $0-48
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	SHRQ $5, CX
	JZ   xordone

xorloop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     xorloop
	VZEROUPPER

xordone:
	RET
