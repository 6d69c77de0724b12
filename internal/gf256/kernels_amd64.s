//go:build amd64 && !purego

#include "textflag.h"

// LOADROW loads the 256 bytes at offset DX of the dst whose slice header
// is at hdr into a row's four accumulators; STOREROW stores them back.
#define LOADROW(hdr, a0, a1, a2, a3) \
	MOVQ      hdr, SI;            \
	VMOVDQU64 (SI)(DX*1), a0;     \
	VMOVDQU64 64(SI)(DX*1), a1;   \
	VMOVDQU64 128(SI)(DX*1), a2;  \
	VMOVDQU64 192(SI)(DX*1), a3

#define STOREROW(hdr, a0, a1, a2, a3) \
	MOVQ      hdr, SI;            \
	VMOVDQU64 a0, (SI)(DX*1);     \
	VMOVDQU64 a1, 64(SI)(DX*1);   \
	VMOVDQU64 a2, 128(SI)(DX*1);  \
	VMOVDQU64 a3, 192(SI)(DX*1)

#define ZEROROW(a0, a1, a2, a3) \
	VPXORQ a0, a0, a0; \
	VPXORQ a1, a1, a1; \
	VPXORQ a2, a2, a2; \
	VPXORQ a3, a3, a3

// PAIRROW XORs one row's products of the source pair in Z16-Z19 and
// Z20-Z23 into its accumulators, ca and cb being the addresses of the
// row's coefficients for the two sources.
#define PAIRROW(ca, cb, a0, a1, a2, a3) \
	MOVBQZX        ca, AX;                \
	VPBROADCASTQ   (R8)(AX*8), Z24;       \
	MOVBQZX        cb, AX;                \
	VPBROADCASTQ   (R8)(AX*8), Z25;       \
	VGF2P8AFFINEQB $0, Z24, Z16, Z26;     \
	VGF2P8AFFINEQB $0, Z25, Z20, Z27;     \
	VPTERNLOGQ     $0x96, Z26, Z27, a0;   \
	VGF2P8AFFINEQB $0, Z24, Z17, Z26;     \
	VGF2P8AFFINEQB $0, Z25, Z21, Z27;     \
	VPTERNLOGQ     $0x96, Z26, Z27, a1;   \
	VGF2P8AFFINEQB $0, Z24, Z18, Z26;     \
	VGF2P8AFFINEQB $0, Z25, Z22, Z27;     \
	VPTERNLOGQ     $0x96, Z26, Z27, a2;   \
	VGF2P8AFFINEQB $0, Z24, Z19, Z26;     \
	VGF2P8AFFINEQB $0, Z25, Z23, Z27;     \
	VPTERNLOGQ     $0x96, Z26, Z27, a3

// ONEROW is PAIRROW for the odd last source, in Z16-Z19 alone.
#define ONEROW(ca, a0, a1, a2, a3) \
	MOVBQZX        ca, AX;            \
	VPBROADCASTQ   (R8)(AX*8), Z24;   \
	VGF2P8AFFINEQB $0, Z24, Z16, Z26; \
	VPXORQ         Z26, a0, a0;       \
	VGF2P8AFFINEQB $0, Z24, Z17, Z26; \
	VPXORQ         Z26, a1, a1;       \
	VGF2P8AFFINEQB $0, Z24, Z18, Z26; \
	VPXORQ         Z26, a2, a2;       \
	VGF2P8AFFINEQB $0, Z24, Z19, Z26; \
	VPXORQ         Z26, a3, a3

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

// func mulSlicesGFNI(aff *[256]uint64, coeffs []byte, srcs [][]byte, dsts [][]byte, n int, overwrite bool)
//
// The rows in groups of four, one pass over the sources per group, the
// last group taking what is left. Per 256-byte step of a group: set up row
// r's accumulator (Z4r-Z4r+3) from dsts[r] or, to overwrite, zero it; then
// for every source, and every row, XOR in aff[coeffs[r*k+j]] applied to
// the source's 256 bytes at the same offset, two sources per VPTERNLOGQ
// three-way XOR and an odd last one on its own; then store each row once. A source's 256 bytes are loaded once (Z16-Z19, its pair's
// partner Z20-Z23) for all the rows. Row 0 runs inline and rows 1-3 out of
// line, so one row, the decode case, takes no extra branch.
//
// DX is the offset into every dst and source; BX walks row 0's
// coefficients, row r's being r*k bytes on (R11 holds k); R10 walks the
// 24-byte slice headers of srcs and R13 counts sources left. R9, R12 and
// R15 point at the group's first row of coeffs, its first dst header and
// that dst's bytes, and R14 counts rows left, the group taking up to four
// of them. Z24-Z25 hold the pair's matrices and Z26-Z27 their products.
TEXT ·mulSlicesGFNI(SB), NOSPLIT, $0-89
	MOVQ aff+0(FP), R8
	MOVQ coeffs_base+8(FP), R9
	MOVQ srcs_len+40(FP), R11
	MOVQ dsts_base+56(FP), R12
	MOVQ (R12), R15
	MOVQ dsts_len+64(FP), R14

gfnigroup:
	MOVQ n+80(FP), CX
	SHRQ $8, CX
	JZ   gfnidone
	XORQ DX, DX

gfnistep:
	CMPB      overwrite+88(FP), $0
	JNE       gfnizero
	VMOVDQU64 (R15)(DX*1), Z0
	VMOVDQU64 64(R15)(DX*1), Z1
	VMOVDQU64 128(R15)(DX*1), Z2
	VMOVDQU64 192(R15)(DX*1), Z3
	CMPQ R14, $1
	JNE  gfniloadmore

gfnisources:
	MOVQ R9, BX
	MOVQ srcs_base+32(FP), R10
	MOVQ R11, R13

gfnipair:
	CMPQ      R13, $1
	JEQ       gfnilast
	MOVQ      (R10), SI
	MOVQ      24(R10), DI
	VMOVDQU64 (SI)(DX*1), Z16
	VMOVDQU64 64(SI)(DX*1), Z17
	VMOVDQU64 128(SI)(DX*1), Z18
	VMOVDQU64 192(SI)(DX*1), Z19
	VMOVDQU64 (DI)(DX*1), Z20
	VMOVDQU64 64(DI)(DX*1), Z21
	VMOVDQU64 128(DI)(DX*1), Z22
	VMOVDQU64 192(DI)(DX*1), Z23
	PAIRROW((BX), 1(BX), Z0, Z1, Z2, Z3)
	CMPQ      R14, $1
	JNE       gfnipairmore

gfnipairnext:
	ADDQ $2, BX
	ADDQ $48, R10
	SUBQ $2, R13
	JNZ  gfnipair
	JMP  gfnistore

gfnilast:
	MOVQ      (R10), SI
	VMOVDQU64 (SI)(DX*1), Z16
	VMOVDQU64 64(SI)(DX*1), Z17
	VMOVDQU64 128(SI)(DX*1), Z18
	VMOVDQU64 192(SI)(DX*1), Z19
	ONEROW((BX), Z0, Z1, Z2, Z3)
	CMPQ      R14, $1
	JNE       gfnilastmore

gfnistore:
	VMOVDQU64 Z0, (R15)(DX*1)
	VMOVDQU64 Z1, 64(R15)(DX*1)
	VMOVDQU64 Z2, 128(R15)(DX*1)
	VMOVDQU64 Z3, 192(R15)(DX*1)
	CMPQ R14, $1
	JNE  gfnistoremore

gfninext:
	ADDQ $256, DX
	DECQ CX
	JNZ  gfnistep
	SUBQ $4, R14
	JLE  gfnidone
	LEAQ (R9)(R11*4), R9
	ADDQ $96, R12
	MOVQ (R12), R15
	JMP  gfnigroup

gfnidone:
	VZEROUPPER
	RET

gfnizero:
	ZEROROW(Z0, Z1, Z2, Z3)
	CMPQ R14, $2
	JLT  gfnisources
	ZEROROW(Z4, Z5, Z6, Z7)
	CMPQ R14, $3
	JLT  gfnisources
	ZEROROW(Z8, Z9, Z10, Z11)
	CMPQ R14, $4
	JLT  gfnisources
	ZEROROW(Z12, Z13, Z14, Z15)
	JMP  gfnisources

gfniloadmore:
	LOADROW(24(R12), Z4, Z5, Z6, Z7)
	CMPQ R14, $3
	JLT  gfnisources
	LOADROW(48(R12), Z8, Z9, Z10, Z11)
	CMPQ R14, $4
	JLT  gfnisources
	LOADROW(72(R12), Z12, Z13, Z14, Z15)
	JMP  gfnisources

gfnipairmore:
	PAIRROW((BX)(R11*1), 1(BX)(R11*1), Z4, Z5, Z6, Z7)
	CMPQ R14, $3
	JLT  gfnipairnext
	PAIRROW((BX)(R11*2), 1(BX)(R11*2), Z8, Z9, Z10, Z11)
	CMPQ R14, $4
	JLT  gfnipairnext
	LEAQ (BX)(R11*2), SI
	PAIRROW((SI)(R11*1), 1(SI)(R11*1), Z12, Z13, Z14, Z15)
	JMP  gfnipairnext

gfnilastmore:
	ONEROW((BX)(R11*1), Z4, Z5, Z6, Z7)
	CMPQ R14, $3
	JLT  gfnistore
	ONEROW((BX)(R11*2), Z8, Z9, Z10, Z11)
	CMPQ R14, $4
	JLT  gfnistore
	LEAQ (BX)(R11*2), SI
	ONEROW((SI)(R11*1), Z12, Z13, Z14, Z15)
	JMP  gfnistore

gfnistoremore:
	STOREROW(24(R12), Z4, Z5, Z6, Z7)
	CMPQ R14, $3
	JLT  gfninext
	STOREROW(48(R12), Z8, Z9, Z10, Z11)
	CMPQ R14, $4
	JLT  gfninext
	STOREROW(72(R12), Z12, Z13, Z14, Z15)
	JMP  gfninext

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
