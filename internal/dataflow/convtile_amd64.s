#include "textflag.h"

// The conv and FC kernels start their hot loop on a 32-byte boundary
// (PCALIGN $32), so that how the loop is fetched does not depend on where the
// linker places the function, which it aligns to 32 bytes only: moving
// convTile8 by 32 bytes made the float32 LeNet session 6 % slower on a
// 2-core Xeon.

// func convTile8(win *float32, taps *int32, n int, w0, w1, w2, w3 *float32, o0, o1, o2, o3 *float32, b0, b1, b2, b3 float32)
//
// Four output channels × eight consecutive output positions. Per tap t the
// eight window words at win[taps[t]:] are loaded once, each channel's weight
// is broadcast, and the products are rounded (VMULPS) before they are added
// (VADDPS): every lane is one cell's chain from +0, in tap order, with the
// oracle's two roundings per MAC. A fused multiply-add would round once and
// break bit-identity, so none is used. Each finished chain then gets its
// channel's bias added (chain + bias, as the Go store adds it) and the eight
// cells are stored at the channel's output row.
TEXT ·convTile8(SB), NOSPLIT, $0-104
	MOVQ win+0(FP), SI
	MOVQ taps+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ w0+24(FP), R8
	MOVQ w1+32(FP), R9
	MOVQ w2+40(FP), R10
	MOVQ w3+48(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ BX, BX
	TESTQ CX, CX
	JLE store
	PCALIGN $32

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
	VBROADCASTSS b0+88(FP), Y4
	VBROADCASTSS b1+92(FP), Y5
	VBROADCASTSS b2+96(FP), Y6
	VBROADCASTSS b3+100(FP), Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	MOVQ o0+56(FP), R8
	MOVQ o1+64(FP), R9
	MOVQ o2+72(FP), R10
	MOVQ o3+80(FP), R11
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, (R9)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, (R11)
	VZEROUPPER
	RET

// func fcRows8(in *float32, blocks int, w *float32, v int, acc *float32)
//
// Eight FC neurons (rows w, w+v, …, w+7v of the row-major weights, read in
// place) against one input vector, eight inputs per step. Each half of the
// block is one 4×4 transpose per 128-bit lane: the inputs' four words are
// broadcast to both lanes, neuron j's four weights are loaded into the low
// lane and neuron j+4's into the high one, and the four VMULPS products
// (rounded) are transposed in-lane (VUNPCKLPS/HPS, then VSHUFPS) into one
// vector per input whose lane j is neuron j's product. Those are added
// (VADDPS) in input order into the eight sums, which start from acc: every
// lane is one neuron's h-ascending chain with two roundings per MAC, the Go
// band's. No FMA.
TEXT ·fcRows8(SB), NOSPLIT, $0-40
	MOVQ in+0(FP), SI
	MOVQ blocks+8(FP), CX
	MOVQ w+16(FP), DI
	MOVQ v+24(FP), DX
	MOVQ acc+32(FP), R8
	SHLQ $2, DX            // row stride in bytes
	LEAQ (DX)(DX*2), R10   // three rows
	LEAQ (DI)(DX*4), R9    // neuron 4's row
	VMOVUPS (R8), Y15
	TESTQ CX, CX
	JLE storerows
	PCALIGN $32

looprows:
	VBROADCASTF128 (SI), Y12
	VBROADCASTF128 16(SI), Y13
	VMOVUPS (DI), X0
	VMOVUPS (DI)(DX*1), X1
	VMOVUPS (DI)(DX*2), X2
	VMOVUPS (DI)(R10*1), X3
	VINSERTF128 $1, (R9), Y0, Y0
	VINSERTF128 $1, (R9)(DX*1), Y1, Y1
	VINSERTF128 $1, (R9)(DX*2), Y2, Y2
	VINSERTF128 $1, (R9)(R10*1), Y3, Y3
	VMOVUPS 16(DI), X4
	VMOVUPS 16(DI)(DX*1), X5
	VMOVUPS 16(DI)(DX*2), X6
	VMOVUPS 16(DI)(R10*1), X7
	VINSERTF128 $1, 16(R9), Y4, Y4
	VINSERTF128 $1, 16(R9)(DX*1), Y5, Y5
	VINSERTF128 $1, 16(R9)(DX*2), Y6, Y6
	VINSERTF128 $1, 16(R9)(R10*1), Y7, Y7
	VMULPS Y12, Y0, Y0
	VMULPS Y12, Y1, Y1
	VMULPS Y12, Y2, Y2
	VMULPS Y12, Y3, Y3
	VMULPS Y13, Y4, Y4
	VMULPS Y13, Y5, Y5
	VMULPS Y13, Y6, Y6
	VMULPS Y13, Y7, Y7

	// Inputs 0–3: lane pairs (a,b) = neurons (0,1), (c,d) = (2,3), and
	// (4,5), (6,7) in the high lane.
	VUNPCKLPS Y1, Y0, Y8   // a0 b0 a1 b1
	VUNPCKHPS Y1, Y0, Y9   // a2 b2 a3 b3
	VUNPCKLPS Y3, Y2, Y10  // c0 d0 c1 d1
	VUNPCKHPS Y3, Y2, Y11  // c2 d2 c3 d3
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VADDPS Y0, Y15, Y15
	VADDPS Y1, Y15, Y15
	VADDPS Y2, Y15, Y15
	VADDPS Y3, Y15, Y15

	// Inputs 4–7.
	VUNPCKLPS Y5, Y4, Y8
	VUNPCKHPS Y5, Y4, Y9
	VUNPCKLPS Y7, Y6, Y10
	VUNPCKHPS Y7, Y6, Y11
	VSHUFPS $0x44, Y10, Y8, Y4
	VSHUFPS $0xEE, Y10, Y8, Y5
	VSHUFPS $0x44, Y11, Y9, Y6
	VSHUFPS $0xEE, Y11, Y9, Y7
	VADDPS Y4, Y15, Y15
	VADDPS Y5, Y15, Y15
	VADDPS Y6, Y15, Y15
	VADDPS Y7, Y15, Y15

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R9
	DECQ CX
	JNZ looprows

storerows:
	VMOVUPS Y15, (R8)
	VZEROUPPER
	RET

// func fcLanes8(x *float32, v int, rows *[8]*float32, acc *[8][8]float32)
//
// Eight FC neurons × eight images. Per input h the eight images' inputs,
// interleaved at x[8h:], are loaded once, each neuron's weight h is
// broadcast, and the products are rounded (VMULPS) before they are added
// (VADDPS) to the neuron's eight sums, which start from acc: every lane is
// one image's h-ascending chain with two roundings per MAC, as in fcRows8
// and the Go band. No FMA. The eight row pointers live in AX, BX, DX and
// R9–R13 and DI is the byte offset of weight h in each row.
TEXT ·fcLanes8(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ v+8(FP), CX
	MOVQ rows+16(FP), DI
	MOVQ acc+24(FP), R8
	MOVQ 0(DI), AX
	MOVQ 8(DI), BX
	MOVQ 16(DI), DX
	MOVQ 24(DI), R9
	MOVQ 32(DI), R10
	MOVQ 40(DI), R11
	MOVQ 48(DI), R12
	MOVQ 56(DI), R13
	VMOVUPS 0(R8), Y0
	VMOVUPS 32(R8), Y1
	VMOVUPS 64(R8), Y2
	VMOVUPS 96(R8), Y3
	VMOVUPS 128(R8), Y4
	VMOVUPS 160(R8), Y5
	VMOVUPS 192(R8), Y6
	VMOVUPS 224(R8), Y7
	XORQ DI, DI
	TESTQ CX, CX
	JLE storelanes
	PCALIGN $32

looplanes:
	VMOVUPS (SI), Y8
	VBROADCASTSS (AX)(DI*1), Y9
	VBROADCASTSS (BX)(DI*1), Y10
	VBROADCASTSS (DX)(DI*1), Y11
	VBROADCASTSS (R9)(DI*1), Y12
	VMULPS Y8, Y9, Y9
	VMULPS Y8, Y10, Y10
	VMULPS Y8, Y11, Y11
	VMULPS Y8, Y12, Y12
	VADDPS Y9, Y0, Y0
	VADDPS Y10, Y1, Y1
	VADDPS Y11, Y2, Y2
	VADDPS Y12, Y3, Y3
	VBROADCASTSS (R10)(DI*1), Y13
	VBROADCASTSS (R11)(DI*1), Y14
	VBROADCASTSS (R12)(DI*1), Y15
	VBROADCASTSS (R13)(DI*1), Y9
	VMULPS Y8, Y13, Y13
	VMULPS Y8, Y14, Y14
	VMULPS Y8, Y15, Y15
	VMULPS Y8, Y9, Y9
	VADDPS Y13, Y4, Y4
	VADDPS Y14, Y5, Y5
	VADDPS Y15, Y6, Y6
	VADDPS Y9, Y7, Y7
	ADDQ $32, SI
	ADDQ $4, DI
	DECQ CX
	JNZ looplanes

storelanes:
	VMOVUPS Y0, 0(R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 64(R8)
	VMOVUPS Y3, 96(R8)
	VMOVUPS Y4, 128(R8)
	VMOVUPS Y5, 160(R8)
	VMOVUPS Y6, 192(R8)
	VMOVUPS Y7, 224(R8)
	VZEROUPPER
	RET

// func poolMax8(win, win2 *float32, k, pw, stride int, out, out2 *float32)
//
// Eight max-pool windows: four consecutive ones of a row from win (lanes
// 0–3, stored to out) and four from win2 (lanes 4–7, stored to out2) — the
// next four of the row, or of a later row where rows are narrower than
// eight. Per tap (m,n), in ascending order, the tap's word of each window
// is loaded — at stride 1 four consecutive words per half (VMOVUPS, then
// VINSERTF128 for the high lane); at stride 2 the even words of eight per
// half, two loads picked by VSHUFPS $0x88 within each 128-bit lane and put
// in order by VPERMPD $0xD8 — and VMAXPS folds it into the running maxima,
// which start at −Inf. The tap is VMAXPS's first source and the running
// maximum its second, so each lane is e > v ? e : v: the Go loop's
// comparison, ±0 ties and NaN included (a NaN tap is skipped).
TEXT ·poolMax8(SB), NOSPLIT, $0-56
	MOVQ win+0(FP), SI
	MOVQ win2+8(FP), R11
	MOVQ k+16(FP), CX
	MOVQ pw+24(FP), DX
	MOVQ stride+32(FP), BX
	MOVQ out+40(FP), DI
	MOVQ out2+48(FP), R12
	SHLQ $2, DX            // row step in bytes
	SUBQ SI, R11           // win2 as an offset from win: one pointer walks the taps
	MOVL $0xff800000, AX   // −Inf
	VMOVD AX, X0
	VBROADCASTSS X0, Y0
	XORQ R8, R8            // m

poolrow:
	MOVQ SI, R9
	XORQ R10, R10          // n
	CMPQ BX, $2
	JEQ pooltap2

pooltap1:
	VMOVUPS (R9), X1
	VINSERTF128 $1, (R9)(R11*1), Y1, Y1
	VMAXPS Y0, Y1, Y0
	ADDQ $4, R9
	INCQ R10
	CMPQ R10, CX
	JLT pooltap1
	JMP poolnext

pooltap2:
	VMOVUPS (R9), Y1
	VMOVUPS (R9)(R11*1), Y2
	VSHUFPS $0x88, Y2, Y1, Y1
	VPERMPD $0xD8, Y1, Y1
	VMAXPS Y0, Y1, Y0
	ADDQ $4, R9
	INCQ R10
	CMPQ R10, CX
	JLT pooltap2

poolnext:
	ADDQ DX, SI
	INCQ R8
	CMPQ R8, CX
	JLT poolrow
	VMOVUPS X0, (DI)
	VEXTRACTF128 $1, Y0, (R12)
	VZEROUPPER
	RET

// func poolMax8I8(win, win2 *int8, k, pw, stride int, out, out2 *int8)
//
// poolMax8 on int8 codes: eight max-pool windows, four consecutive ones of a
// row from win (bytes 0–3, stored to out) and four from win2 (bytes 4–7,
// stored to out2). Per tap (m,n) the tap's code of each window is loaded —
// at stride 1 four consecutive bytes per half (VMOVD, then VPINSRD for
// win2's); at stride 2 eight per half, the windows' taps on the even bytes
// (VMOVQ twice, joined by VPUNPCKLQDQ) — and VPMAXSB folds it into the
// running signed maxima, which start at −128. At stride 2 the odd bytes carry
// maxima no window uses: the even ones are picked at the end by
// sign-extending each int16 lane's low byte and packing with signed
// saturation, exact for int8 values. Integer max is exact and order-free, so
// every window's code is the Go loop's.
TEXT ·poolMax8I8(SB), NOSPLIT, $0-56
	MOVQ win+0(FP), SI
	MOVQ win2+8(FP), R11
	MOVQ k+16(FP), CX
	MOVQ pw+24(FP), DX
	MOVQ stride+32(FP), BX
	MOVQ out+40(FP), DI
	MOVQ out2+48(FP), R12
	SUBQ SI, R11           // win2 as an offset from win: one pointer walks the taps
	MOVL $0x80808080, AX   // −128 in every byte
	VMOVD AX, X0
	VPBROADCASTD X0, X0
	MOVQ CX, R8            // rows left (k ≥ 1)

pool8row:
	MOVQ SI, R9
	MOVQ CX, R10           // taps left in the row
	CMPQ BX, $2
	JEQ pool8tap2

pool8tap1:
	VMOVD (R9), X1
	VPINSRD $1, (R9)(R11*1), X1, X1
	VPMAXSB X1, X0, X0
	INCQ R9
	DECQ R10
	JNZ pool8tap1
	JMP pool8next

pool8tap2:
	VMOVQ (R9), X1
	VMOVQ (R9)(R11*1), X2
	VPUNPCKLQDQ X2, X1, X1
	VPMAXSB X1, X0, X0
	INCQ R9
	DECQ R10
	JNZ pool8tap2

pool8next:
	ADDQ DX, SI
	DECQ R8
	JNZ pool8row
	CMPQ BX, $2
	JNE pool8store
	VPSLLW $8, X0, X0
	VPSRAW $8, X0, X0
	VPACKSSWB X0, X0, X0

pool8store:
	VMOVD X0, (DI)
	VPEXTRD $1, X0, (R12)
	RET

// DEQSTORE8 is the int8 tile's epilogue for one channel, deqStore4's
// instruction sequence on eight lanes: the int32 sums in accy are widened
// exactly (VCVTDQ2PD, four per half), multiplied by deq (Y15) and biased
// (VADDPD, the channel's float32 bias widened exactly into Y14) in float64,
// then rounded to nearest float32 (VCVTPD2PSY). VMAXPS takes Y10 as its
// first source and the value as its second: Y10 is zero with ReLU, so a lane
// is 0 > v ? 0 : v — Go's `if v < 0`, which keeps −0 and a NaN — and −Inf
// without, which returns every value unchanged. The eight floats are stored
// at out, and their magnitude bits (sign cleared, Y12), a NaN lane (above
// +Inf's bits, Y11) masked to zero, fold as unsigned integers into the
// channel's running maximum at max.
#define DEQSTORE8(accy, accx, bias, out, max) \
	VCVTSS2SD bias, X14, X14; \
	VBROADCASTSD X14, Y14; \
	VEXTRACTI128 $1, accy, X5; \
	VCVTDQ2PD X5, Y5; \
	VCVTDQ2PD accx, Y4; \
	VMULPD Y15, Y4, Y4; \
	VMULPD Y15, Y5, Y5; \
	VADDPD Y14, Y4, Y4; \
	VADDPD Y14, Y5, Y5; \
	VCVTPD2PSY Y4, X4; \
	VCVTPD2PSY Y5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMAXPS Y4, Y10, Y4; \
	MOVQ out, R8; \
	VMOVUPS Y4, (R8); \
	VPAND Y12, Y4, Y4; \
	VPCMPGTD Y11, Y4, Y5; \
	VPANDN Y4, Y5, Y4; \
	VEXTRACTI128 $1, Y4, X5; \
	VPMAXUD X5, X4, X4; \
	VPSHUFD $0x4E, X4, X5; \
	VPMAXUD X5, X4, X4; \
	VPSHUFD $0xB1, X4, X5; \
	VPMAXUD X5, X4, X4; \
	MOVQ max, R8; \
	VMOVD (R8), X5; \
	VPMAXUD X5, X4, X4; \
	VMOVD X4, (R8)

// func convTile8I8(win *int8, taps *int32, pairs int, w0, w1, w2, w3 *uint32, o0, o1, o2, o3 *float32, deq float64, b0, b1, b2, b3 float32, relu bool, m0, m1, m2, m3 *uint32)
//
// The int8 tile: four output channels × eight consecutive output positions,
// one pair of taps per step. The eight codes at win[taps[2i]:] and the eight
// at win[taps[2i+1]:] are interleaved and sign-extended to sixteen int16
// lanes (a0 b0 a1 b1 …), each channel's (w[2i], w[2i+1]) word is broadcast,
// and VPMADDWD leaves a_k·w[2i] + b_k·w[2i+1] in int32 lane k. Integer sums
// are exact and order-free, so the lanes equal the Go tile's while the chain
// fits int32 (rule CND026). Each channel j's finished sums are then stored
// dequantized at oj and folded into its maximum at mj (DEQSTORE8). A quad
// that repeats its last channel stores the same floats twice and folds the
// same maximum twice.
TEXT ·convTile8I8(SB), NOSPLIT, $0-152
	MOVQ win+0(FP), SI
	MOVQ taps+8(FP), DI
	MOVQ pairs+16(FP), CX
	MOVQ w0+24(FP), R8
	MOVQ w1+32(FP), R9
	MOVQ w2+40(FP), R10
	MOVQ w3+48(FP), R11
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ BX, BX
	TESTQ CX, CX
	JLE store8
	PCALIGN $32

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
	VBROADCASTSD deq+88(FP), Y15
	MOVL $0x7fffffff, AX   // magnitude mask
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	MOVL $0x7f800000, AX   // +Inf
	VMOVD AX, X11
	VPBROADCASTD X11, Y11
	MOVL $0xff800000, AX   // −Inf: VMAXPS returns every value
	MOVBLZX relu+112(FP), DX
	TESTQ DX, DX
	JZ floor8
	XORL AX, AX            // zero: ReLU

floor8:
	VMOVD AX, X10
	VPBROADCASTD X10, Y10
	DEQSTORE8(Y0, X0, b0+96(FP), o0+56(FP), m0+120(FP))
	DEQSTORE8(Y1, X1, b1+100(FP), o1+64(FP), m1+128(FP))
	DEQSTORE8(Y2, X2, b2+104(FP), o2+72(FP), m2+136(FP))
	DEQSTORE8(Y3, X3, b3+108(FP), o3+80(FP), m3+144(FP))
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

// func fcLanes8I8(x *uint32, pairs int, rows *[8]*uint32, acc *[8][8]int32)
//
// fcLanes8 on int8 codes: eight FC neurons × eight images, one pair of
// inputs per step. Per pair p the eight images' (x[2p], x[2p+1]) int16
// pairs, interleaved at x[8p:], are loaded once, each neuron's tap-pair
// word p (pairWeights) is broadcast, and VPMADDWD leaves x[2p]·w[2p] +
// x[2p+1]·w[2p+1] in each image's int32 lane, which VPADDD adds to the
// neuron's eight sums, from zero. Integer sums are exact and order-free, so
// every lane is fcDot4I8's and the Go tile's sum while the chain fits int32
// (rule CND026). The eight row pointers live in AX, BX, DX and R9–R13 and DI
// is the byte offset of pair p in each row.
TEXT ·fcLanes8I8(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ pairs+8(FP), CX
	MOVQ rows+16(FP), DI
	MOVQ acc+24(FP), R8
	MOVQ 0(DI), AX
	MOVQ 8(DI), BX
	MOVQ 16(DI), DX
	MOVQ 24(DI), R9
	MOVQ 32(DI), R10
	MOVQ 40(DI), R11
	MOVQ 48(DI), R12
	MOVQ 56(DI), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ DI, DI
	TESTQ CX, CX
	JLE storelanes8
	PCALIGN $32

looplanes8:
	VMOVDQU (SI), Y8
	VPBROADCASTD (AX)(DI*1), Y9
	VPBROADCASTD (BX)(DI*1), Y10
	VPBROADCASTD (DX)(DI*1), Y11
	VPBROADCASTD (R9)(DI*1), Y12
	VPMADDWD Y8, Y9, Y9
	VPMADDWD Y8, Y10, Y10
	VPMADDWD Y8, Y11, Y11
	VPMADDWD Y8, Y12, Y12
	VPADDD Y9, Y0, Y0
	VPADDD Y10, Y1, Y1
	VPADDD Y11, Y2, Y2
	VPADDD Y12, Y3, Y3
	VPBROADCASTD (R10)(DI*1), Y13
	VPBROADCASTD (R11)(DI*1), Y14
	VPBROADCASTD (R12)(DI*1), Y15
	VPBROADCASTD (R13)(DI*1), Y9
	VPMADDWD Y8, Y13, Y13
	VPMADDWD Y8, Y14, Y14
	VPMADDWD Y8, Y15, Y15
	VPMADDWD Y8, Y9, Y9
	VPADDD Y13, Y4, Y4
	VPADDD Y14, Y5, Y5
	VPADDD Y15, Y6, Y6
	VPADDD Y9, Y7, Y7
	ADDQ $32, SI
	ADDQ $4, DI
	DECQ CX
	JNZ looplanes8

storelanes8:
	VMOVDQU Y0, 0(R8)
	VMOVDQU Y1, 32(R8)
	VMOVDQU Y2, 64(R8)
	VMOVDQU Y3, 96(R8)
	VMOVDQU Y4, 128(R8)
	VMOVDQU Y5, 160(R8)
	VMOVDQU Y6, 192(R8)
	VMOVDQU Y7, 224(R8)
	VZEROUPPER
	RET

// func deqStore4(acc *int32, blocks int, dst *float32, deq, bias float64, relu bool, m uint32) uint32
//
// The int8 conv store, four sums per step: each int32 sum is widened
// exactly (VCVTDQ2PD), multiplied by deq (VMULPD) and biased (VADDPD) in
// float64, then rounded to nearest float32 (VCVTPD2PS under the default
// MXCSR): float32(float64(a)·deq + bias), the Go store's two roundings and
// its conversion. With relu the value is VMAXPS's second source and zero
// its first, so a lane is 0 > v ? 0 : v — Go's `if v < 0`, which keeps −0
// and a NaN. The stored values' magnitude bits (sign cleared) fold into the
// running maximum, which starts at m, as unsigned integers; a NaN lane
// (magnitude above +Inf's bits) is masked to zero first, so it never wins.
TEXT ·deqStore4(SB), NOSPLIT, $0-52
	MOVQ acc+0(FP), SI
	MOVQ blocks+8(FP), CX
	MOVQ dst+16(FP), DI
	VBROADCASTSD deq+24(FP), Y15
	VBROADCASTSD bias+32(FP), Y14
	MOVBLZX relu+40(FP), AX
	MOVL m+44(FP), DX
	VMOVD DX, X13
	VPBROADCASTD X13, X13
	MOVL $0x7fffffff, DX   // magnitude mask
	VMOVD DX, X12
	VPBROADCASTD X12, X12
	MOVL $0x7f800000, DX   // +Inf
	VMOVD DX, X11
	VPBROADCASTD X11, X11
	VXORPS X10, X10, X10
	TESTQ CX, CX
	JLE deqmax

deqloop:
	VCVTDQ2PD (SI), Y0
	VMULPD Y15, Y0, Y0
	VADDPD Y14, Y0, Y0
	VCVTPD2PSY Y0, X0
	TESTB AL, AL
	JZ deqstore
	VMAXPS X0, X10, X0

deqstore:
	VMOVUPS X0, (DI)
	VPAND X12, X0, X1
	VPCMPGTD X11, X1, X2   // NaN lanes
	VPANDN X1, X2, X1
	VPMAXUD X1, X13, X13
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ deqloop

deqmax:
	VPSHUFD $0x4E, X13, X1
	VPMAXUD X1, X13, X13
	VPSHUFD $0xB1, X13, X1
	VPMAXUD X1, X13, X13
	VMOVD X13, AX
	MOVL AX, ret+48(FP)
	VZEROUPPER
	RET

// func quantize8(dst *int8, src *float32, blocks int, inv float64)
//
// quant.QuantizeInto's rounding, eight values per step: each float32 is
// widened exactly (VCVTPS2PD) and multiplied by inv (VMULPD), as Go's
// float64(v)·inv. The product is clamped to ±126.5 with VMINPD and VMAXPD,
// the product being their second source so that a NaN passes through as
// Go's comparisons let it; above 126.5 (or below −126.5) the clamp lands
// exactly on ±127 after rounding, as Go's clamp branches do. Then
// copysign(0.5, f) is added (the sign bit of f OR 0.5) and VCVTTPD2DQ
// truncates to int32, and VPSHUFB keeps each int32's low byte, as Go's
// int8(int32(·)) does: a NaN converts to 0x80000000, whose low byte is 0
// (a saturating pack would make it −128).
TEXT ·quantize8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	VBROADCASTSD inv+24(FP), Y15
	MOVQ $0x405FA00000000000, AX   // 126.5
	VMOVQ AX, X14
	VBROADCASTSD X14, Y14
	MOVQ $0xC05FA00000000000, AX   // −126.5
	VMOVQ AX, X13
	VBROADCASTSD X13, Y13
	MOVQ $0x8000000000000000, AX   // sign bit
	VMOVQ AX, X12
	VBROADCASTSD X12, Y12
	MOVQ $0x3FE0000000000000, AX   // 0.5
	VMOVQ AX, X11
	VBROADCASTSD X11, Y11
	MOVL $0x0C080400, AX           // low byte of each int32 lane
	VMOVD AX, X10
	TESTQ CX, CX
	JLE qdone

qloop:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VMINPD Y0, Y14, Y0
	VMINPD Y1, Y14, Y1
	VMAXPD Y0, Y13, Y0
	VMAXPD Y1, Y13, Y1
	VANDPD Y12, Y0, Y2
	VANDPD Y12, Y1, Y3
	VORPD Y11, Y2, Y2
	VORPD Y11, Y3, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	VPSHUFB X10, X0, X0
	VPSHUFB X10, X1, X1
	VPUNPCKLDQ X1, X0, X0
	VMOVQ X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	DECQ CX
	JNZ qloop

qdone:
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
