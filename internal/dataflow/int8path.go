package dataflow

import (
	"math"
	"slices"

	"condor/internal/diag"
	"condor/internal/nn"
	"condor/internal/quant"
)

// This file is the packed int8 datapath: the fabric variant selected by
// Spec.WordBits == 8, where every stream word models fifo.Int8Lanes quantized
// activation lanes. An image crosses each stream edge as a float32 scale
// word and PackedWords(volume) payload words; on the host it is its codes,
// one byte each, and its scale. The first PE's executor quantizes a float
// image with its own per-tensor scale (i8Ops.load), the kernels read the
// codes in place, run conv/FC MACs in widened integer accumulators,
// dequantize once per layer to fold bias/activation/normalisation in float,
// and requantize with a fresh symmetric per-tensor scale at the PE boundary,
// straight into the next volume. Only the load quantizes float inputs and
// only the store after the last PE dequantizes back — in between,
// activations exist purely as codes, which is what shrinks the stream
// traversal cycles and DDR bytes by the lane factor.
//
// Codes have one layout on every CPU: a conv layer's padded code planes are
// stacked one byte per code, as the float32 path stacks words, and FC codes
// are row-major. The executor (peExec[int8], with i8Ops as its per-type
// value) and the MAC loops are the float32 path's too — convPass's nests and
// the generic Go tiles (convTileGo, fcTileGo) — summing in int32,
// which rule CND026 keeps from wrapping. Where the CPU has AVX2 the same sums
// come from VPMADDWD tiles (convtile_amd64.s) sixteen int16 products per
// instruction: the conv tile over the code stack and a tap-pair weight table
// (pairWeights), the FC kernel over the row-major codes. Integer sums are
// exact, so every kernel gives the same int32s. Max pooling runs the float32
// path's half-tile loop (maxPoolPlane) on VPMAXSB where the CPU has AVX2;
// integer max is exact too. DESIGN.md §15 has the derivations.
//
// Unlike the float paths, results are not bit-identical to the oracle: the
// contract is bounded error, with the admissible deviation derived from the
// per-tensor scales recorded in RunStats (InputScale, MaxRequantScale). See
// quant_equiv_test.go.

// frameScale rounds a per-tensor scale to float32 before anything is
// quantized with it, so the exact value a scale word can transport is also
// the value the codes were produced with.
func frameScale(data []float32) float64 {
	return float64(float32(quant.TensorScale(data, quant.Int8)))
}

// Int8AccumulatorRange enforces rule CND026 on one layer of a packed fabric:
// its accumulation depth (C·K² of a convolution, the input volume of an FC
// layer) times the largest code product 128² must stay below 2³¹, or a
// saturated input wraps the int32 accumulator. Nil when the layer is in
// range.
func Int8AccumulatorRange(peID string, l *LayerHW) *diag.Diagnostic {
	const maxDepth = 1<<31/(128*128) - 1
	var depth int64
	switch l.Kind {
	case nn.Conv:
		depth = int64(l.InShape.Channels) * int64(l.Kernel) * int64(l.Kernel)
	case nn.FullyConnected:
		depth = int64(l.InShape.Volume())
	}
	if depth <= maxDepth {
		return nil
	}
	return diag.Errorf(diag.RuleAccumulatorRange, peID, l.Name,
		"int8 accumulation depth %d exceeds %d: a saturated input wraps the int32 accumulator", depth, maxDepth)
}

// int8LayerWeights is one layer's weights pre-quantized onto the symmetric
// int8 grid, once per Instantiate, and read by every compute unit and every
// run, so batches never pay the weight-calibration scan again.
type int8LayerWeights struct {
	w        []int8   // the codes in weight order: one row per output channel or neuron
	tapPairs []uint32 // conv codes by tap pair (pairWeights), for the AVX2 conv tile
	wScale   float64
}

// quantizeLayerWeights derives one compute layer's int8 codes from its float
// weight stream, plus the AVX2 conv tile's pair table where that tile runs.
func quantizeLayerWeights(l *LayerHW, w []float32) int8LayerWeights {
	e := int8LayerWeights{wScale: frameScale(w), w: make([]int8, len(w))}
	quant.QuantizeInto(e.w, w, e.wScale)
	if l.Kind == nn.Conv && haveAVX2 {
		e.tapPairs = pairWeights(e.w, l.InShape.Channels*l.Kernel*l.Kernel)
	}
	return e
}

// pairWeights lays a conv layer's codes (n taps per output channel) out for
// the AVX2 tile: word i of a channel's row carries tap 2i's code in its low
// int16 half and tap 2i+1's — zero past an odd count — in its high half.
func pairWeights(codes []int8, n int) []uint32 {
	pairs := (n + 1) / 2
	out := make([]uint32, len(codes)/n*pairs)
	for i, c := range codes {
		f, t := i/n, i%n
		out[f*pairs+t/2] |= uint32(uint16(c)) << (t % 2 * 16)
	}
	return out
}

// pairTaps pads a tap table to whole pairs for the AVX2 tile: an odd count
// repeats its last offset, which pairWeights weights with zero.
func pairTaps(taps []int32) []int32 {
	if len(taps)%2 == 0 {
		return taps
	}
	return append(taps[:len(taps):len(taps)], taps[len(taps)-1])
}

// i8Ops is the packed datapath's per-type value. Its arithmetic is
// int8×int8 in int32 accumulators with one dequantize/requantize per layer
// boundary: the stores dequantize into floatBuf, where bias, activation and
// normalisation fold in float, and the layer close requantizes with a fresh
// per-tensor scale, straight into the output codes. Integer accumulation is
// exact and order-free; the layer schedule models the packed stream
// traversal. The weight codes and kernel choices are the plan's (lower).
type i8Ops struct {
	x     *peExec[int8]
	tiles convPass[int8, uint32, int32]

	// Scratch sized once in prepare for the PE's most demanding layer.
	floatBuf []float32 // a layer's results before requantization
	chanMax  []uint32  // a direct or im2col_gemm conv layer's largest |result| per output channel, as float32 bits (convStore)
	deqBuf   []float32 // a winograd_f23 layer's dequantized input volume
}

// newI8Exec binds a packed int8 executor to its PE.
func newI8Exec(b peBase) *peExec[int8] {
	x := &peExec[int8]{peBase: b, poolMax8: poolMax8I8}
	o := &i8Ops{x: x}
	o.tiles.ops, x.el = o, o
	return x
}

func (o *i8Ops) prepare(sz *scratchWords) {
	o.floatBuf = make([]float32, sz.vol)
	o.chanMax = make([]uint32, sz.channels)
	o.deqBuf = make([]float32, sz.winogradIn)
}

// load is the fabric's only float→int8 point: an image is quantized with
// its own per-tensor scale. store is the only int8→float point: the last
// PE's codes are dequantized with their scale as the output leaves.
func (o *i8Ops) load(dst []int8, img []float32) float64 {
	scale := frameScale(img)
	quantizeCodes(dst[:len(img)], img, scale)
	return scale
}

func (o *i8Ops) store(dst []float32, src []int8, scale float64) {
	quant.DequantizeInto(dst, src[:len(dst)], scale)
}

// fcChunk declines: int8 FC layers run fcDot4I8 image by image.
func (o *i8Ops) fcChunk([]int8, []int8, int, int) bool { return false }

func (o *i8Ops) floats(n int) []float32 { return o.floatBuf[:n] }

// floatsIn dequantizes the input codes for a winograd_f23 layer, whose ±½
// transform combinations do not survive the int8 grid: the float32 schedule
// runs over them and the layer requantizes, so its deviation from the oracle
// is bounded by QuantErrorBound + WinogradErrorBound.
func (o *i8Ops) floatsIn() []float32 {
	p := &o.x.pass
	in := o.deqBuf[:len(p.cur)]
	quant.DequantizeInto(in, p.cur, p.inScale)
	return in
}

// closeLayer requantizes a layer's float results with a fresh symmetric
// per-tensor scale into the output codes.
func (o *i8Ops) closeLayer(fb []float32) float64 {
	outScale := frameScale(fb)
	quantizeCodes(o.x.pass.out, fb, outScale)
	return outScale
}

// quantizeCodes is quant.QuantizeInto — the reference, and the path off
// AVX2 — with its whole blocks of eight on the AVX2 requantizer (quantize8)
// where the CPU has one. load, conv and closeLayer use it.
func quantizeCodes(dst []int8, src []float32, scale float64) {
	_ = dst[:len(src)]
	n := 0
	if haveAVX2 && scale != 0 {
		if n = len(src) &^ 7; n > 0 {
			quantize8(&dst[0], &src[0], n/8, 1/scale)
		}
	}
	quant.QuantizeInto(dst[n:], src[n:], scale)
}

// conv runs the shared nests (convPass) over the stacked code planes: each
// output cell's whole chain is dequantized (acc · wScale · inScale + bias)
// and activated in float, and the layer output is requantized with a fresh
// per-tensor scale, from the per-channel magnitudes the stores kept instead
// of a scan of the output.
func (o *i8Ops) conv(stack []int8) float64 {
	p := &o.x.pass
	l, st := p.l, p.st
	chanMax := o.chanMax[:l.OutShape.Channels]
	clear(chanMax)
	o.tiles.set(l, stack, st.q.w, st.taps, st.q.tapPairs, st.taps2, len(st.taps2)/2)
	o.tiles.run()
	outScale := float64(float32(quant.MaxAbsScale(float64(math.Float32frombits(slices.Max(chanMax))), quant.Int8))) // rounded as frameScale does
	quantizeCodes(p.out, o.floatBuf[:len(p.out)], outScale)
	return outScale
}

// tile8 and store4 are the int8 part of the shared conv nests (convOps): the
// AVX2 tile reads the padded tap table and rows of the tap-pair table.
func (o *i8Ops) tile8(win *int8, taps *int32, pairs int, w [4]*uint32, f [4]int, pos int) {
	var acc [4][convLanes]int32
	convTile8I8(win, taps, pairs, w[0], w[1], w[2], w[3], &acc)
	for j, fj := range f {
		if j == 0 || fj != f[j-1] {
			o.convStore(fj, pos, acc[j][:])
		}
	}
}

func (o *i8Ops) store4(fi, pos, n int, acc [convPosTile]int32) { o.convStore(fi, pos, acc[:n]) }

// convStore dequantizes and activates a tile's position sums for one
// channel, into channel fi's float plane from pos on, and folds their
// magnitudes into the channel's maximum with tensorScale's comparison (a NaN
// is skipped). A recomputed tile stores equal values again, so the maximum
// is the scan's. Whole blocks of four run on deqStore4 where the layer admits
// it (layerState.deq4), the rest on deqStoreGo.
func (o *i8Ops) convStore(fi, pos int, acc []int32) {
	p := &o.x.pass
	l, bias := p.l, float64(biasAt(p.st.b, fi))
	deq := p.st.q.wScale * p.inScale
	fb := o.floatBuf[fi*l.OutShape.Height*l.OutShape.Width+pos:][:len(acc)]
	m, n := o.chanMax[fi], 0
	if p.st.deq4 {
		if n = len(acc) &^ 3; n > 0 {
			m = deqStore4(&acc[0], n/4, &fb[0], deq, bias, l.Activation == nn.ReLU, m)
		}
	}
	if n < len(acc) {
		m = deqStoreGo(fb[n:], acc[n:], deq, bias, l.Activation, m)
	}
	o.chanMax[fi] = m
}

// deqStoreGo is the conv store's float stage in Go, the reference for
// deqStore4: fb[i] = float32(float64(acc[i])·deq + bias), activated, and the
// running magnitude maximum m (float32 bits, sign cleared) folded with the
// stored values', a NaN skipped.
func deqStoreGo(fb []float32, acc []int32, deq, bias float64, act nn.Kind, m uint32) uint32 {
	fb = fb[:len(acc)]
	for i, a := range acc {
		fb[i] = float32(float64(a)*deq + bias)
	}
	activateInPlace(act, fb)
	for _, v := range fb {
		if a := math.Float32bits(v) &^ (1 << 31); a <= 0x7f800000 { // |v|, whose bits order as the magnitudes do, unless a NaN
			m = max(m, a)
		}
	}
	return m
}

// maxFloats dequantizes a max pool's codes for the folded activation that
// follows it.
func (o *i8Ops) maxFloats(fb []float32, out []int8) { quant.DequantizeInto(fb, out, o.x.pass.inScale) }

// avgPool averages from int32 window sums, dequantized at the input scale.
func (o *i8Ops) avgPool(fb []float32, plane []int8) {
	p := &o.x.pass
	avgPlane[int8, int32](fb, plane, p.l, p.inScale/float64(p.l.Kernel*p.l.Kernel))
}

// fc accumulates, dequantizes and biases every neuron, four per tile over
// the row-major codes; a layer ending inside a quad repeats its last neuron.
// On the AVX2 kernel (layerState.tile8) fcDot4I8 takes each quad's whole
// 16-input blocks, sixteen codes per step, and its eight lane sums per neuron
// are added up here; the Go tile takes the inputs past the last block, or the
// whole row.
func (o *i8Ops) fc(fb []float32) {
	p := &o.x.pass
	in, w := p.cur, p.st.q.w
	v, body := len(in), 0
	if p.st.tile8 {
		body = v &^ 15
	}
	deq := p.st.q.wScale * p.inScale
	var acc [4][convLanes]int32
	for oi := 0; oi < len(fb); oi += 4 {
		f := quad(oi, len(fb))
		var s [4]int32
		if p.st.tile8 {
			fcDot4I8(&in[0], body/16, &w[f[0]*v], &w[f[1]*v], &w[f[2]*v], &w[f[3]*v], &acc)
			for j := range s {
				for _, a := range acc[j] {
					s[j] += a
				}
			}
		}
		s = fcTileGo(in[body:], w[body:], v, f, s)
		for j, fj := range f {
			fb[fj] = float32(float64(s[j])*deq + float64(biasAt(p.st.b, fj)))
		}
	}
}
