#include "textflag.h"

// func convTile8(win *float32, taps *int32, n int, w0, w1, w2, w3 *float32, acc *[4][8]float32)
//
// Four output channels × eight consecutive output positions. Per tap t the
// eight window words at win[taps[t]:] are loaded once, each channel's weight
// is broadcast, and the products are rounded (VMULPS) before they are added
// (VADDPS): every lane is one cell's chain from +0, in tap order, with the
// oracle's two roundings per MAC. A fused multiply-add would round once and
// break bit-identity, so none is used.
TEXT ·convTile8(SB), NOSPLIT, $0-64
	MOVQ win+0(FP), SI
	MOVQ taps+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ w0+24(FP), R8
	MOVQ w1+32(FP), R9
	MOVQ w2+40(FP), R10
	MOVQ w3+48(FP), R11
	MOVQ acc+56(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ BX, BX
	TESTQ CX, CX
	JLE store

loop:
	MOVLQSX (DI)(BX*4), AX
	VMOVUPS (SI)(AX*4), Y4
	VBROADCASTSS (R8)(BX*4), Y5
	VBROADCASTSS (R9)(BX*4), Y6
	VBROADCASTSS (R10)(BX*4), Y7
	VBROADCASTSS (R11)(BX*4), Y8
	VMULPS Y4, Y5, Y5
	VMULPS Y4, Y6, Y6
	VMULPS Y4, Y7, Y7
	VMULPS Y4, Y8, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	INCQ BX
	CMPQ BX, CX
	JLT loop

store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VZEROUPPER
	RET

// func convTile8I8(win *int8, taps *int32, pairs int, w0, w1, w2, w3 *uint32, acc *[4][8]int32)
//
// The int8 tile: four output channels × eight consecutive output positions,
// one pair of taps per step. The eight codes at win[taps[2i]:] and the eight
// at win[taps[2i+1]:] are interleaved and sign-extended to sixteen int16
// lanes (a0 b0 a1 b1 …), each channel's (w[2i], w[2i+1]) word is broadcast,
// and VPMADDWD leaves a_k·w[2i] + b_k·w[2i+1] in int32 lane k. Integer sums
// are exact and order-free, so the lanes equal the Go tile's while the chain
// fits int32 (rule CND026).
TEXT ·convTile8I8(SB), NOSPLIT, $0-64
	MOVQ win+0(FP), SI
	MOVQ taps+8(FP), DI
	MOVQ pairs+16(FP), CX
	MOVQ w0+24(FP), R8
	MOVQ w1+32(FP), R9
	MOVQ w2+40(FP), R10
	MOVQ w3+48(FP), R11
	MOVQ acc+56(FP), DX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ BX, BX
	TESTQ CX, CX
	JLE store8

loop8:
	MOVLQSX (DI)(BX*8), AX
	MOVLQSX 4(DI)(BX*8), R12
	VMOVQ (SI)(AX*1), X4
	VMOVQ (SI)(R12*1), X5
	VPUNPCKLBW X5, X4, X4
	VPMOVSXBW X4, Y4
	VPBROADCASTD (R8)(BX*4), Y5
	VPBROADCASTD (R9)(BX*4), Y6
	VPBROADCASTD (R10)(BX*4), Y7
	VPBROADCASTD (R11)(BX*4), Y8
	VPMADDWD Y4, Y5, Y5
	VPMADDWD Y4, Y6, Y6
	VPMADDWD Y4, Y7, Y7
	VPMADDWD Y4, Y8, Y8
	VPADDD Y5, Y0, Y0
	VPADDD Y6, Y1, Y1
	VPADDD Y7, Y2, Y2
	VPADDD Y8, Y3, Y3
	INCQ BX
	CMPQ BX, CX
	JLT loop8

store8:
	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VZEROUPPER
	RET

// func fcDot4I8(in *int8, blocks int, w0, w1, w2, w3 *int8, acc *[4][8]int32)
//
// Four FC neurons against one input vector, sixteen codes per step: the
// input block and each neuron's row block are sign-extended to int16 lanes,
// VPMADDWD sums adjacent products into eight int32 lanes and VPADDD
// accumulates them. The caller adds a neuron's eight lanes and the inputs
// past the last whole block.
TEXT ·fcDot4I8(SB), NOSPLIT, $0-56
	MOVQ in+0(FP), SI
	MOVQ blocks+8(FP), CX
	MOVQ w0+16(FP), R8
	MOVQ w1+24(FP), R9
	MOVQ w2+32(FP), R10
	MOVQ w3+40(FP), R11
	MOVQ acc+48(FP), DX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	SHLQ $4, CX
	XORQ BX, BX
	TESTQ CX, CX
	JLE storefc

loopfc:
	VPMOVSXBW (SI)(BX*1), Y4
	VPMOVSXBW (R8)(BX*1), Y5
	VPMOVSXBW (R9)(BX*1), Y6
	VPMOVSXBW (R10)(BX*1), Y7
	VPMOVSXBW (R11)(BX*1), Y8
	VPMADDWD Y4, Y5, Y5
	VPMADDWD Y4, Y6, Y6
	VPMADDWD Y4, Y7, Y7
	VPMADDWD Y4, Y8, Y8
	VPADDD Y5, Y0, Y0
	VPADDD Y6, Y1, Y1
	VPADDD Y7, Y2, Y2
	VPADDD Y8, Y3, Y3
	ADDQ $16, BX
	CMPQ BX, CX
	JLT loopfc

storefc:
	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
