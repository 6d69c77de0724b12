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

// func mulAddSlicesGFNI(aff *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte)
//
// Per 256 bytes of dst: load them into Z0-Z3, XOR in aff[coeffs[j]]
// applied to every source's 256 bytes at the same offset, two sources per
// VPTERNLOGQ three-way XOR and an odd last one on its own, then store
// Z0-Z3 once. DX is the offset into dst and every source; BX walks coeffs
// and R10 the 24-byte slice headers of srcs; R13 counts sources left.
TEXT ·mulAddSlicesGFNI(SB), NOSPLIT, $0-80
	MOVQ aff+0(FP), R8
	MOVQ coeffs_base+8(FP), R9
	MOVQ coeffs_len+16(FP), R11
	MOVQ srcs_base+32(FP), R12
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	SHRQ $8, CX
	JZ   fuseddone
	XORQ DX, DX

fusedstep:
	VMOVDQU64 (DI)(DX*1), Z0
	VMOVDQU64 64(DI)(DX*1), Z1
	VMOVDQU64 128(DI)(DX*1), Z2
	VMOVDQU64 192(DI)(DX*1), Z3
	MOVQ      R9, BX
	MOVQ      R12, R10
	MOVQ      R11, R13

fusedpair:
	CMPQ           R13, $1
	JEQ            fusedlast
	MOVBQZX        (BX), AX
	VPBROADCASTQ   (R8)(AX*8), Z4
	MOVBQZX        1(BX), AX
	VPBROADCASTQ   (R8)(AX*8), Z9
	MOVQ           (R10), SI
	MOVQ           24(R10), AX
	VMOVDQU64      (SI)(DX*1), Z5
	VMOVDQU64      64(SI)(DX*1), Z6
	VMOVDQU64      128(SI)(DX*1), Z7
	VMOVDQU64      192(SI)(DX*1), Z8
	VMOVDQU64      (AX)(DX*1), Z10
	VMOVDQU64      64(AX)(DX*1), Z11
	VMOVDQU64      128(AX)(DX*1), Z12
	VMOVDQU64      192(AX)(DX*1), Z13
	VGF2P8AFFINEQB $0, Z4, Z5, Z5
	VGF2P8AFFINEQB $0, Z4, Z6, Z6
	VGF2P8AFFINEQB $0, Z4, Z7, Z7
	VGF2P8AFFINEQB $0, Z4, Z8, Z8
	VGF2P8AFFINEQB $0, Z9, Z10, Z10
	VGF2P8AFFINEQB $0, Z9, Z11, Z11
	VGF2P8AFFINEQB $0, Z9, Z12, Z12
	VGF2P8AFFINEQB $0, Z9, Z13, Z13
	VPTERNLOGQ     $0x96, Z5, Z10, Z0 // Z0 ^= Z5 ^ Z10
	VPTERNLOGQ     $0x96, Z6, Z11, Z1
	VPTERNLOGQ     $0x96, Z7, Z12, Z2
	VPTERNLOGQ     $0x96, Z8, Z13, Z3
	ADDQ           $2, BX
	ADDQ           $48, R10
	SUBQ           $2, R13
	JNZ            fusedpair
	JMP            fusedstore

fusedlast:
	MOVBQZX        (BX), AX
	VPBROADCASTQ   (R8)(AX*8), Z4
	MOVQ           (R10), SI
	VMOVDQU64      (SI)(DX*1), Z5
	VMOVDQU64      64(SI)(DX*1), Z6
	VMOVDQU64      128(SI)(DX*1), Z7
	VMOVDQU64      192(SI)(DX*1), Z8
	VGF2P8AFFINEQB $0, Z4, Z5, Z5
	VGF2P8AFFINEQB $0, Z4, Z6, Z6
	VGF2P8AFFINEQB $0, Z4, Z7, Z7
	VGF2P8AFFINEQB $0, Z4, Z8, Z8
	VPXORQ         Z5, Z0, Z0
	VPXORQ         Z6, Z1, Z1
	VPXORQ         Z7, Z2, Z2
	VPXORQ         Z8, Z3, Z3

fusedstore:
	VMOVDQU64 Z0, (DI)(DX*1)
	VMOVDQU64 Z1, 64(DI)(DX*1)
	VMOVDQU64 Z2, 128(DI)(DX*1)
	VMOVDQU64 Z3, 192(DI)(DX*1)
	ADDQ      $256, DX
	DECQ      CX
	JNZ       fusedstep
	VZEROUPPER

fuseddone:
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
