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
// come from VPMADDWD kernels (convtile_amd64.s) sixteen int16 products per
// instruction: the conv tile over the code stack and a tap-pair weight table
// (pairWeights), which also dequantizes, stores and folds its own cells as
// deqStore4 does; the FC kernel over one image's row-major codes; and for a
// chunk of images the FC image-lane kernel, eight neurons × eight images per
// call over the pair table, one weight pass per chunk. Integer sums are
// exact, so every kernel gives the same int32s. Max pooling runs the float32
// path's half-tile loop (maxPoolPlane) on VPMAXSB where the CPU has AVX2;
// integer max is exact too. DESIGN.md §15 and §16 have the derivations.
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
	tapPairs []uint32 // the codes by tap pair (pairWeights), for the AVX2 conv tile and FC image-lane kernel
	wScale   float64
}

// quantizeLayerWeights derives one compute layer's int8 codes from its float
// weight stream, plus the pair table of the AVX2 kernels where they run.
func quantizeLayerWeights(l *LayerHW, w []float32) int8LayerWeights {
	e := int8LayerWeights{wScale: frameScale(w), w: make([]int8, len(w))}
	quant.QuantizeInto(e.w, w, e.wScale)
	if haveAVX2 {
		e.tapPairs = pairWeights(e.w, len(w)/l.OutShape.Channels)
	}
	return e
}

// pairWeights lays a layer's codes (n taps per output channel or neuron) out
// for the AVX2 kernels, one row of pairCodes per channel.
func pairWeights(codes []int8, n int) []uint32 {
	pairs := (n + 1) / 2
	out := make([]uint32, len(codes)/n*pairs)
	for f := range len(codes) / n {
		pairCodes(out[f*pairs:], 1, codes[f*n:][:n])
	}
	return out
}

// pairCodes writes codes two by two into every stride-th word of dst: word
// i carries code 2i in its low int16 half and code 2i+1 — zero past an odd
// count — in its high half, the operand layout of VPMADDWD.
func pairCodes(dst []uint32, stride int, codes []int8) {
	j := 0
	for ; len(codes) >= 2; j += stride {
		dst[j] = uint32(uint16(codes[0])) | uint32(uint16(codes[1]))<<16
		codes = codes[2:]
	}
	if len(codes) == 1 {
		dst[j] = uint32(uint16(codes[0]))
	}
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
	chanMax  []uint32  // a direct or im2col_gemm conv layer's largest |result| per output channel, as float32 bits (tile8, store4)
	deqBuf   []float32 // a winograd_f23 layer's dequantized input volume

	// fcChunk's interleaved input pairs and biased sums, grown on first use.
	lanes []uint32
	sums  []float32
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

// fcChunk is fc, foldFC and closeLayer over a chunk of c images in one pass
// over the weights, on the AVX2 image-lane kernel fcLanes8I8: the codes are
// staged as int16 pairs, lane i image i's, and each group of convLanes
// neurons is one kernel call over the layer's pair table. The int32 sums are
// exact, so they are fcDot4I8's and fcTileGo's; each image's are then
// dequantized at its own input scale, folded, and requantized with a scale of
// its own. The neurons past the last whole group run again as the last
// convLanes of the layer, and a layer narrower than convLanes repeats its
// last neuron, each storing the same sums again. A lone image, or a layer
// lowered without AVX2, runs fc image by image instead.
func (o *i8Ops) fcChunk(in, out []int8, inScales, outScales []float64, stride, c int) bool {
	p := &o.x.pass
	if !p.st.tile8 || c < 2 {
		return false
	}
	l, q, b := p.l, &p.st.q, p.st.b
	v, n := l.InShape.Volume(), l.OutShape.Volume()
	pairs := (v + 1) / 2
	if len(o.lanes) < pairs*convLanes {
		o.lanes = make([]uint32, pairs*convLanes)
	}
	if len(o.sums) < n*convLanes {
		o.sums = make([]float32, n*convLanes)
	}
	lanes, sums := o.lanes[:pairs*convLanes], o.sums[:n*c]
	if c < convLanes {
		clear(lanes) // the idle lanes compute on zeros
	}
	var deq [convLanes]float64
	for i := 0; i < c; i++ {
		pairCodes(lanes[i:], convLanes, in[i*stride:][:v])
		deq[i] = q.wScale * inScales[i]
	}
	var rows [convLanes]*uint32
	var acc [convLanes][convLanes]int32
	for g := 0; g < n; g += convLanes {
		first := min(g, max(n-convLanes, 0))
		for j := range rows {
			rows[j] = &q.tapPairs[min(first+j, n-1)*pairs]
		}
		fcLanes8I8(&lanes[0], pairs, &rows, &acc)
		for j := range rows {
			f := min(first+j, n-1)
			bias := float64(biasAt(b, f))
			for i, a := range acc[j][:c] {
				sums[i*n+f] = float32(float64(a)*deq[i] + bias)
			}
		}
	}
	for i := 0; i < c; i++ {
		fb := sums[i*n:][:n]
		foldFC(l, fb)
		p.out = out[i*stride:][:n]
		outScales[i] = o.closeLayer(fb)
		o.x.maxRequant = max(o.x.maxRequant, outScales[i])
	}
	return true
}

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
// of a scan of the output. The AVX2 tile clamps only for ReLU, so on it a
// Sigmoid or TanH layer is activated here and its scale scanned.
func (o *i8Ops) conv(stack []int8) float64 {
	p := &o.x.pass
	l, st := p.l, p.st
	chanMax := o.chanMax[:l.OutShape.Channels]
	clear(chanMax)
	o.tiles.set(l, stack, st.q.w, st.taps, st.q.tapPairs, st.taps2, len(st.taps2)/2)
	o.tiles.run()
	fb := o.floatBuf[:len(p.out)]
	if o.tiles.tile8 && l.Activation != NoActivation && l.Activation != nn.ReLU {
		activateInPlace(l.Activation, fb)
		return o.closeLayer(fb)
	}
	outScale := float64(float32(quant.MaxAbsScale(float64(math.Float32frombits(slices.Max(chanMax))), quant.Int8))) // rounded as frameScale does
	quantizeCodes(p.out, fb, outScale)
	return outScale
}

// tile8 and store4 are the int8 part of the shared conv nests (convOps). The
// AVX2 tile reads the padded tap table and rows of the tap-pair table, and
// stores and folds its channels' sums itself, a repeated channel twice.
// store4 dequantizes and activates a Go tile's first n sums for channel fi,
// into the channel's float plane from pos on, and folds their magnitudes
// into the channel's maximum with tensorScale's comparison (a NaN is
// skipped): whole blocks of four on deqStore4 where the layer admits it
// (layerState.deq4), the rest on deqStoreGo. A recomputed tile stores equal
// values again, so each maximum is the scan's.
func (o *i8Ops) tile8(win *int8, taps *int32, pairs int, w [4]*uint32, f [4]int, pos int) {
	p := &o.x.pass
	hw, b, fb, m := p.l.OutShape.Height*p.l.OutShape.Width, p.st.b, o.floatBuf, o.chanMax
	convTile8I8(win, taps, pairs, w[0], w[1], w[2], w[3],
		&fb[f[0]*hw+pos], &fb[f[1]*hw+pos], &fb[f[2]*hw+pos], &fb[f[3]*hw+pos],
		p.st.q.wScale*p.inScale, biasAt(b, f[0]), biasAt(b, f[1]), biasAt(b, f[2]), biasAt(b, f[3]),
		p.l.Activation == nn.ReLU, &m[f[0]], &m[f[1]], &m[f[2]], &m[f[3]])
}

func (o *i8Ops) store4(fi, pos, n int, acc [convPosTile]int32) {
	p := &o.x.pass
	l, bias := p.l, float64(biasAt(p.st.b, fi))
	deq := p.st.q.wScale * p.inScale
	fb := o.floatBuf[fi*l.OutShape.Height*l.OutShape.Width+pos:][:n]
	m, k := o.chanMax[fi], 0
	if p.st.deq4 && n == convPosTile {
		m, k = deqStore4(&acc[0], 1, &fb[0], deq, bias, l.Activation == nn.ReLU, m), n
	}
	if k < n {
		m = deqStoreGo(fb[k:], acc[k:n], deq, bias, l.Activation, m)
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

// fc accumulates, dequantizes and biases one image's neurons, four per tile
// over the row-major codes; a layer ending inside a quad repeats its last
// neuron.
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
