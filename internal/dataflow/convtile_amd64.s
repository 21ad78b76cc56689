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

// The max-pool kernels take one channel plane per call: output rows
// [0,rows) of outW windows each, the k×k windows of output row oy starting
// at plane[oy·stride·pw + ox·stride], stored row after row from out on. A
// row is covered in steps of consecutive windows: per tap (m,n), in
// ascending order, a step loads the same run of raw elements from its
// first window's top-left element + m·pw + n on and folds it into the
// running maxima, so raw lane p ends as the maximum of the window starting
// at raw element p. At stride 1 every raw lane is a window; at stride 2
// the even ones are, and they are picked once, after the taps. A step's
// lanes past the row's last window compute maxima no window uses (they
// read on into the row, or the rows, after it), and only the row's windows
// are stored: n = min(windows left, windows per step) lanes, in pieces of
// 2^i lanes for each bit i of n. poolMax8Rows guards the loads.

// func poolMaxPlane(plane *float32, k, pw, stride, outW, rows int, out *float32)
//
// float32 words, 16 raw words per step (two VMOVUPS per tap): 16 windows at
// stride 1, 8 at stride 2, picked by VSHUFPS $0x88 within each 128-bit lane
// and put in order by VPERMPD $0xD8. VMAXPS folds each tap into the running
// maxima, which start at −Inf, with the tap as its first source and the
// running maximum as its second, so each lane is e > v ? e : v: the Go
// loop's comparison, ±0 ties and NaN included (a NaN tap is skipped).
TEXT ·poolMaxPlane(SB), NOSPLIT, $0-56
	MOVQ plane+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ pw+16(FP), DX
	MOVQ stride+24(FP), BX
	MOVQ outW+32(FP), R13
	MOVQ out+48(FP), DI
	SHLQ $2, DX            // tap row step in bytes
	MOVQ DX, R12
	IMULQ BX, R12          // bytes from one output row's windows to the next's
	MOVL $0xff800000, AX   // −Inf
	VMOVD AX, X15
	VBROADCASTSS X15, Y15
	CMPQ rows+40(FP), $0
	JLE pooldone

poolrow:
	MOVQ SI, AX            // the step's first window
	MOVQ R13, R11          // windows left in the row

poolstep:
	VMOVAPS Y15, Y0
	VMOVAPS Y15, Y1
	MOVQ AX, R8
	MOVQ CX, R9            // tap rows left

pooltaprow:
	MOVQ R8, R10
	MOVQ CX, R14           // taps left in the row

pooltap:
	VMOVUPS (R10), Y2
	VMOVUPS 32(R10), Y3
	VMAXPS Y0, Y2, Y0
	VMAXPS Y1, Y3, Y1
	ADDQ $4, R10
	DECQ R14
	JNZ pooltap
	ADDQ DX, R8
	DECQ R9
	JNZ pooltaprow
	MOVQ $16, R9           // windows per step
	CMPQ BX, $2
	JNE poolpicked
	VSHUFPS $0x88, Y1, Y0, Y0
	VPERMPD $0xD8, Y0, Y0
	MOVQ $8, R9

poolpicked:
	CMPQ R11, R9
	CMOVQLT R11, R9        // lanes to store
	SUBQ R9, R11
	TESTQ $16, R9
	JZ poolstore8
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	JMP poolstored

poolstore8:
	TESTQ $8, R9
	JZ poolstore4
	VMOVUPS Y0, (DI)
	VMOVAPS Y1, Y0
	ADDQ $32, DI

poolstore4:
	TESTQ $4, R9
	JZ poolstore2
	VMOVUPS X0, (DI)
	VEXTRACTF128 $1, Y0, X0
	ADDQ $16, DI

poolstore2:
	TESTQ $2, R9
	JZ poolstore1
	VMOVQ X0, (DI)
	VPSRLDQ $8, X0, X0
	ADDQ $8, DI

poolstore1:
	TESTQ $1, R9
	JZ poolstored
	VMOVSS X0, (DI)
	ADDQ $4, DI

poolstored:
	ADDQ $64, AX           // the next step: 16 raw words on
	TESTQ R11, R11
	JNZ poolstep
	ADDQ R12, SI
	DECQ rows+40(FP)
	JNZ poolrow

pooldone:
	VZEROUPPER
	RET

// func poolMaxPlaneI8(plane *int8, k, pw, stride, outW, rows int, out *int8)
//
// int8 codes, 32 raw codes per step (one VMOVDQU per tap, as VPMAXSB's
// memory operand): 32 windows at stride 1, 16 at stride 2. VPMAXSB folds
// each tap into the running signed maxima, which start at −128 (VPMAXUB
// would compare unsigned). At stride 2 the even bytes are picked by
// sign-extending each int16 lane's low byte and packing with signed
// saturation, exact for int8 values. Integer max is exact and order-free,
// so every window's code is the Go loop's.
TEXT ·poolMaxPlaneI8(SB), NOSPLIT, $0-56
	MOVQ plane+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ pw+16(FP), DX
	MOVQ stride+24(FP), BX
	MOVQ outW+32(FP), R13
	MOVQ out+48(FP), DI
	MOVQ DX, R12
	IMULQ BX, R12          // codes from one output row's windows to the next's
	MOVL $0x80808080, AX   // −128 in every byte
	VMOVD AX, X15
	VPBROADCASTD X15, Y15
	CMPQ rows+40(FP), $0
	JLE pool8done

pool8row:
	MOVQ SI, AX            // the step's first window
	MOVQ R13, R11          // windows left in the row

pool8step:
	VMOVDQA Y15, Y0
	MOVQ AX, R8
	MOVQ CX, R9            // tap rows left

pool8taprow:
	MOVQ R8, R10
	MOVQ CX, R14           // taps left in the row

pool8tap:
	VPMAXSB (R10), Y0, Y0
	INCQ R10
	DECQ R14
	JNZ pool8tap
	ADDQ DX, R8
	DECQ R9
	JNZ pool8taprow
	MOVQ $32, R9           // windows per step
	CMPQ BX, $2
	JNE pool8picked
	VPSLLW $8, Y0, Y0
	VPSRAW $8, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKSSWB X1, X0, X0
	MOVQ $16, R9

pool8picked:
	CMPQ R11, R9
	CMOVQLT R11, R9        // lanes to store
	SUBQ R9, R11
	TESTQ $32, R9
	JZ pool8store16
	VMOVDQU Y0, (DI)
	ADDQ $32, DI
	JMP pool8stored

pool8store16:
	TESTQ $16, R9
	JZ pool8store8
	VMOVDQU X0, (DI)
	VEXTRACTI128 $1, Y0, X0
	ADDQ $16, DI

pool8store8:
	TESTQ $8, R9
	JZ pool8store4
	VMOVQ X0, (DI)
	VPSRLDQ $8, X0, X0
	ADDQ $8, DI

pool8store4:
	VMOVQ X0, R8
	TESTQ $4, R9
	JZ pool8store2
	MOVL R8, (DI)
	SHRQ $32, R8
	ADDQ $4, DI

pool8store2:
	TESTQ $2, R9
	JZ pool8store1
	MOVW R8, (DI)
	SHRQ $16, R8
	ADDQ $2, DI

pool8store1:
	TESTQ $1, R9
	JZ pool8stored
	MOVB R8, (DI)
	INCQ DI

pool8stored:
	ADDQ $32, AX           // the next step: 32 raw codes on
	TESTQ R11, R11
	JNZ pool8step
	ADDQ R12, SI
	DECQ rows+40(FP)
	JNZ pool8row

pool8done:
	VZEROUPPER
	RET

// DEQSTORE8 is the int8 tile's epilogue for one channel and output row,
// deqStore4's instruction sequence on eight lanes: the int32 sums in accy are
// widened exactly (VCVTDQ2PD, four per half), multiplied by deq (Y15) and
// biased (VADDPD, the channel's float32 bias widened exactly into Y14) in
// float64, then rounded to nearest float32 (VCVTPD2PSY). VMAXPS takes Y10 as
// its first source and the value as its second: Y10 is zero with ReLU, so a
// lane is 0 > v ? 0 : v — Go's `if v < 0`, which keeps −0 and a NaN — and
// −Inf without, which returns every value unchanged. The eight floats are
// stored off bytes past out, and their magnitude bits (sign cleared, Y12), a
// NaN lane (above +Inf's bits, Y11) masked to zero, fold as unsigned integers
// into the channel's running maximum at max.
#define DEQSTORE8(accy, accx, bias, out, off, max) \
	VCVTSS2SD bias, X14, X14; \
	VBROADCASTSD X14, Y14; \
	VEXTRACTI128 $1, accy, X9; \
	VCVTDQ2PD X9, Y9; \
	VCVTDQ2PD accx, Y8; \
	VMULPD Y15, Y8, Y8; \
	VMULPD Y15, Y9, Y9; \
	VADDPD Y14, Y8, Y8; \
	VADDPD Y14, Y9, Y9; \
	VCVTPD2PSY Y8, X8; \
	VCVTPD2PSY Y9, X9; \
	VINSERTF128 $1, X9, Y8, Y8; \
	VMAXPS Y8, Y10, Y8; \
	MOVQ out, R8; \
	VMOVUPS Y8, (R8)(off*1); \
	VPAND Y12, Y8, Y8; \
	VPCMPGTD Y11, Y8, Y9; \
	VPANDN Y8, Y9, Y8; \
	VEXTRACTI128 $1, Y8, X9; \
	VPMAXUD X9, X8, X8; \
	VPSHUFD $0x4E, X8, X9; \
	VPMAXUD X9, X8, X8; \
	VPSHUFD $0xB1, X8, X9; \
	VPMAXUD X9, X8, X8; \
	MOVQ max, R8; \
	VMOVD (R8), X9; \
	VPMAXUD X9, X8, X8; \
	VMOVD X8, (R8)

// func convTile16I8(win *uint32, taps *int32, pairs int, w0, w1, w2, w3 *uint32, rowIn int, o0, o1, o2, o3 *float32, rowOut int, deq float64, b0, b1, b2, b3 float32, relu bool, m0, m1, m2, m3 *uint32)
//
// The int8 tile: four output channels × two output rows × eight consecutive
// output positions, one tap pair per step over the layer's pair planes,
// whose words each hold two codes as int16 halves (stagePairPlanes). Per
// step i the eight words at win[taps[i]:] (the first row's windows) and the
// eight rowIn words on (the second row's) are loaded once, each channel's
// tap-pair weight word i is broadcast, and VPMADDWD leaves the pair's two
// products summed in int32 lane k of the row's accumulator: Y0–Y3 the first
// row's four channels, Y4–Y7 the second's. Integer sums are exact and
// order-free, so the lanes equal the Go tile's while the chain fits int32
// (rule CND026). Each channel j's finished sums are then stored dequantized
// at oj and rowOut words past it, and folded into its maximum at mj
// (DEQSTORE8). A quad that repeats its last channel, and a row pair whose
// rows coincide (rowIn = rowOut = 0), store the same floats twice and fold
// the same maximum twice.
TEXT ·convTile16I8(SB), NOSPLIT, $0-168
	MOVQ win+0(FP), SI
	MOVQ taps+8(FP), DI
	MOVQ pairs+16(FP), CX
	MOVQ w0+24(FP), R8
	MOVQ w1+32(FP), R9
	MOVQ w2+40(FP), R10
	MOVQ w3+48(FP), R11
	MOVQ rowIn+56(FP), R13
	LEAQ (SI)(R13*4), R13  // the second row's first window
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ BX, BX
	TESTQ CX, CX
	JLE store16
	PCALIGN $32

loop16:
	MOVLQSX (DI)(BX*4), AX
	VMOVDQU (SI)(AX*4), Y8
	VMOVDQU (R13)(AX*4), Y9
	VPBROADCASTD (R8)(BX*4), Y10
	VPBROADCASTD (R9)(BX*4), Y11
	VPMADDWD Y8, Y10, Y12
	VPMADDWD Y9, Y10, Y13
	VPMADDWD Y8, Y11, Y14
	VPMADDWD Y9, Y11, Y15
	VPADDD Y12, Y0, Y0
	VPADDD Y13, Y4, Y4
	VPADDD Y14, Y1, Y1
	VPADDD Y15, Y5, Y5
	VPBROADCASTD (R10)(BX*4), Y10
	VPBROADCASTD (R11)(BX*4), Y11
	VPMADDWD Y8, Y10, Y12
	VPMADDWD Y9, Y10, Y13
	VPMADDWD Y8, Y11, Y14
	VPMADDWD Y9, Y11, Y15
	VPADDD Y12, Y2, Y2
	VPADDD Y13, Y6, Y6
	VPADDD Y14, Y3, Y3
	VPADDD Y15, Y7, Y7
	INCQ BX
	CMPQ BX, CX
	JLT loop16

store16:
	VBROADCASTSD deq+104(FP), Y15
	MOVL $0x7fffffff, AX   // magnitude mask
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	MOVL $0x7f800000, AX   // +Inf
	VMOVD AX, X11
	VPBROADCASTD X11, Y11
	MOVL $0xff800000, AX   // −Inf: VMAXPS returns every value
	MOVBLZX relu+128(FP), DX
	TESTQ DX, DX
	JZ floor16
	XORL AX, AX            // zero: ReLU

floor16:
	VMOVD AX, X10
	VPBROADCASTD X10, Y10
	XORQ R9, R9            // the first row's offset
	MOVQ rowOut+96(FP), DX
	SHLQ $2, DX            // the second row's, in bytes
	DEQSTORE8(Y0, X0, b0+112(FP), o0+64(FP), R9, m0+136(FP))
	DEQSTORE8(Y1, X1, b1+116(FP), o1+72(FP), R9, m1+144(FP))
	DEQSTORE8(Y2, X2, b2+120(FP), o2+80(FP), R9, m2+152(FP))
	DEQSTORE8(Y3, X3, b3+124(FP), o3+88(FP), R9, m3+160(FP))
	DEQSTORE8(Y4, X4, b0+112(FP), o0+64(FP), DX, m0+136(FP))
	DEQSTORE8(Y5, X5, b1+116(FP), o1+72(FP), DX, m1+144(FP))
	DEQSTORE8(Y6, X6, b2+120(FP), o2+80(FP), DX, m2+152(FP))
	DEQSTORE8(Y7, X7, b3+124(FP), o3+88(FP), DX, m3+160(FP))
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
