package dataflow

// convTile8 runs the whole C·K² chain of a 4-channel × convLanes-position
// float32 tile in AVX2 (convtile_amd64.s): win points at the first window's
// top-left word in channel 0's plane, the other seven windows start at the
// words after it, taps are the layer's n gather offsets and w0–w3 the four
// channels' weight rows. It stores chain + bias of channel j (bias bj) to the
// convLanes words at oj. The loads and stores are unchecked; convTile8OK
// guards the loads.
//
//go:noescape
func convTile8(win *float32, taps *int32, n int, w0, w1, w2, w3 *float32, o0, o1, o2, o3 *float32, b0, b1, b2, b3 float32)

// fcRows8 adds the first 8·blocks products of eight consecutive FC neurons'
// row-major weight rows (w is neuron 0's row, the others follow v words
// apart) with the input in, in h order, onto the eight sums at acc — each
// lane one neuron's chain, as the Go tile accumulates it. Unchecked loads:
// the input and all eight rows must hold 8·blocks words.
//
//go:noescape
func fcRows8(in *float32, blocks int, w *float32, v int, acc *float32)

// fcLanes8 continues the chains of eight FC neurons over a chunk of up to
// convLanes images at once: x holds the v inputs interleaved, input h of
// image i at x[h·convLanes+i], rows are the eight neurons' weight rows and
// acc[j][i] is neuron j's sum for image i. Input h adds its rounded product
// to every sum in ascending h order — each lane one image's chain, as
// fcRows8 and the Go tile accumulate it. Unchecked loads: x must hold
// v·convLanes words and each row v.
//
//go:noescape
func fcLanes8(x *float32, v int, rows *[convLanes]*float32, acc *[convLanes][convLanes]float32)

// poolMaxPlane writes the max pool of output rows [0,rows) of one channel
// from its padded plane, pw words a row, to out, outW windows a row: the
// window of output row oy and column ox starts at plane[(oy·pw+ox)·stride]
// (stride 1 or 2) and spans k×k words. It covers a row in steps of 16 raw
// words per tap — 16 windows at stride 1, 8 at stride 2 — and stores only
// the row's windows. Unchecked loads and stores, the loads guarded by
// poolMax8Rows.
//
//go:noescape
func poolMaxPlane(plane *float32, k, pw, stride, outW, rows int, out *float32)

// poolMaxPlaneI8 is poolMaxPlane on int8 codes, in steps of 32 raw codes
// per tap — 32 windows at stride 1, 16 at stride 2.
//
//go:noescape
func poolMaxPlaneI8(plane *int8, k, pw, stride, outW, rows int, out *int8)

// convTile16I8 is the int8 conv tile: four output channels × two output
// rows × convLanes positions, the sums in int32 lanes and one tap pair per
// step over the layer's pair planes (stagePairPlanes). win is the first
// row's first window in them and the second row's starts rowIn words on,
// taps holds the pairs steps' offsets (pairTapOffsets) and w0–w3 are the
// four channels' rows of the layer's pair table (convPairWeights). It stores
// channel j's sums dequantized, as deqStore4 stores them —
// float32(float64(a)·deq + bj), clamped at zero when relu is set — to the
// convLanes words at oj for the first row and rowOut words past it for the
// second, and folds their magnitudes into the channel's running maximum at
// mj (float32 bits, sign cleared, a NaN skipped). Unchecked loads and
// stores; convTile8OK guards the loads.
//
//go:noescape
func convTile16I8(win *uint32, taps *int32, pairs int, w0, w1, w2, w3 *uint32, rowIn int, o0, o1, o2, o3 *float32, rowOut int, deq float64, b0, b1, b2, b3 float32, relu bool, m0, m1, m2, m3 *uint32)

// fcDot4I8 accumulates the first 16·blocks products of four FC neurons'
// code rows w0–w3 with the input codes in, eight int32 lanes per neuron; the
// caller adds the lanes up and finishes the row. Unchecked loads: every row
// and the input must hold 16·blocks codes.
//
//go:noescape
func fcDot4I8(in *int8, blocks int, w0, w1, w2, w3 *int8, acc *[4][convLanes]int32)

// fcLanes8I8 is fcLanes8 on int8 codes: x holds a chunk of up to convLanes
// images' inputs as int16 pairs (pairCodes), pair p of image i at
// x[p·convLanes+i], rows are eight neurons' rows of the layer's pair table
// (pairWeights) and acc[j][i] receives neuron j's exact int32 sum for image
// i. Unchecked loads: x must hold pairs·convLanes words and each row pairs.
//
//go:noescape
func fcLanes8I8(x *uint32, pairs int, rows *[convLanes]*uint32, acc *[convLanes][convLanes]int32)

// deqStore4 dequantizes 4·blocks int32 conv sums at acc into dst as
// float32(float64(a)·deq + bias), clamps them at zero when relu is set, and
// returns the running magnitude maximum m (float32 bits, sign cleared)
// folded with theirs, a NaN skipped: deqStoreGo's results, bit for bit.
// Unchecked loads and stores: acc and dst must hold 4·blocks elements.
//
//go:noescape
func deqStore4(acc *int32, blocks int, dst *float32, deq, bias float64, relu bool, m uint32) uint32

// quantize8 writes the int8 codes of 8·blocks float32 values at src to dst
// with the reciprocal scale inv: quant.QuantizeInto's codes, bit for bit.
// Unchecked loads and stores: src and dst must hold 8·blocks elements.
//
//go:noescape
func quantize8(dst *int8, src *float32, blocks int, inv float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the ymm
// registers across context switches: the gate of every kernel above.
var haveAVX2 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}()
