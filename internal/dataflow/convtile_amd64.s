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
