package dataflow

import (
	"math"
	"slices"

	"condor/internal/diag"
	"condor/internal/nn"
	"condor/internal/quant"
)

// This file is the packed int8 datapath: the fabric variant selected by
// Spec.WordBits == 8, where every stream word models int8Lanes quantized
// activation lanes. An image crosses each stream edge as a float32 scale
// word and packedWords(volume) payload words; on the host it is its codes,
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
// Codes are one byte each in the worker's volumes: a conv layer's padded
// code planes are stacked as the float32 path stacks words, and FC codes
// are row-major. The executor (peExec[int8], with i8Ops as its per-type
// value) and the MAC loops are the float32 path's too — convPass's nests and
// the generic Go tiles (convTileGo, fcTileGo) — summing in int32,
// which rule CND026 keeps from wrapping. Where the CPU has AVX2 the same sums
// come from VPMADDWD kernels (convtile_amd64.s) sixteen int16 products per
// instruction, over operands laid out at int16 width once so that no kernel
// loop widens or shuffles: the conv tile reads the image's pair planes
// (stagePairPlanes, one word per position holding two channels' codes) and
// a tap-pair weight table in the same order (convPairWeights), two output
// rows per call, and dequantizes, stores and folds its own cells as
// deqStore4 does; the FC kernel reads one image's row-major codes; and for a
// chunk of images the FC image-lane kernel, eight neurons × eight images per
// call over the FC pair table (pairWeights), one weight pass per chunk.
// Integer sums are exact, so every kernel gives the same int32s. Max pooling
// runs one channel plane per call of VPMAXSB (maxPoolPlane) where the CPU
// has AVX2; integer max is exact too. DESIGN.md §15 and §16 have the
// derivations.
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
	tapPairs []uint32 // the codes by tap pair, for the AVX2 conv tile (convPairWeights) and FC image-lane kernel (pairWeights)
	wScale   float64
}

// quantizeLayerWeights derives one compute layer's int8 codes from its float
// weight stream, plus the pair table of the AVX2 kernels where they run.
func quantizeLayerWeights(l *LayerHW, w []float32) int8LayerWeights {
	e := int8LayerWeights{wScale: frameScale(w), w: make([]int8, len(w))}
	quant.QuantizeInto(e.w, w, e.wScale)
	switch {
	case !haveAVX2:
	case l.Kind == nn.Conv:
		e.tapPairs = convPairWeights(l, e.w)
	default:
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

// convPairs calls visit for each step of the AVX2 int8 conv tile over conv
// layer l, in order, with the step's offset in the layer's pair planes
// (stagePairPlanes) and the indexes, in an output channel's weight row, of
// the weights of its low and high int16 halves (hi < 0: a zero weight).
// Channels 2c and 2c+1 pair at every tap (m,n), pair plane c; an odd
// count's last channel, alone in the last pair plane, pairs the taps (m,n)
// and (m,n+1) of each kernel row, with a zero weight past the row's end.
// The offsets ascend.
func convPairs(l *LayerHW, visit func(off int32, lo, hi int)) {
	k, c, pw := l.Kernel, l.InShape.Channels, l.PaddedWidth()
	plane := l.PaddedHeight() * pw
	for p := 0; p < c/2; p++ {
		for t := 0; t < k*k; t++ {
			visit(int32(p*plane+t/k*pw+t%k), 2*p*k*k+t, (2*p+1)*k*k+t)
		}
	}
	if c%2 == 0 {
		return
	}
	for m := 0; m < k; m++ {
		for n := 0; n < k; n += 2 {
			lo, hi := ((c-1)*k+m)*k+n, -1
			if n+1 < k {
				hi = lo + 1
			}
			visit(int32(c/2*plane+m*pw+n), lo, hi)
		}
	}
}

// pairTapOffsets is the AVX2 int8 conv tile's tap table over conv layer l:
// one pair-plane offset per step (convPairs).
func pairTapOffsets(l *LayerHW) []int32 {
	var taps []int32
	convPairs(l, func(off int32, _, _ int) { taps = append(taps, off) })
	return taps
}

// convPairWeights lays conv layer l's codes out for the AVX2 int8 tile, one
// row per output channel: word i holds the weights of step i (convPairs),
// the low one in its low int16 half, as pairCodes packs them.
func convPairWeights(l *LayerHW, codes []int8) []uint32 {
	n := len(codes) / l.OutShape.Channels
	var halves [][2]int
	convPairs(l, func(_ int32, lo, hi int) { halves = append(halves, [2]int{lo, hi}) })
	out := make([]uint32, 0, l.OutShape.Channels*len(halves))
	for f := range l.OutShape.Channels {
		row := codes[f*n:][:n]
		for _, h := range halves {
			w := uint32(uint16(row[h[0]]))
			if h[1] >= 0 {
				w |= uint32(uint16(row[h[1]])) << 16
			}
			out = append(out, w)
		}
	}
	return out
}

// stagePairPlanes lays a conv layer's stacked padded code planes out as the
// AVX2 int8 tile reads them: pair plane c holds, at each position, channel
// 2c's code in the low int16 half and channel 2c+1's in the high one; an odd
// count's last pair plane holds the last channel's code and the one after it
// in the plane, zero past the plane's end — the operands of convPairs's steps.
func stagePairPlanes(dst []uint32, stack []int8, l *LayerHW) {
	c, plane := l.InShape.Channels, l.PaddedHeight()*l.PaddedWidth()
	for p := 0; p < c/2; p++ {
		lo, hi, d := stack[2*p*plane:][:plane], stack[(2*p+1)*plane:][:plane], dst[p*plane:][:plane]
		for q := range d {
			d[q] = uint32(uint16(lo[q])) | uint32(hi[q])<<16
		}
	}
	if c%2 == 1 {
		lo, d := stack[(c-1)*plane:][:plane], dst[c/2*plane:][:plane]
		for q := range plane - 1 {
			d[q] = uint32(uint16(lo[q])) | uint32(lo[q+1])<<16
		}
		d[plane-1] = uint32(uint16(lo[plane-1]))
	}
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
	pairs    []uint32  // a direct or im2col_gemm conv layer's pair planes (stagePairPlanes), for the AVX2 tile
	chanMax  []uint32  // a direct or im2col_gemm conv layer's largest |result| per output channel, as float32 bits (tile8, store4)
	deqBuf   []float32 // a winograd_f23 layer's dequantized input volume

	// fcChunk's interleaved input pairs and biased sums, grown on first use.
	lanes []uint32
	sums  []float32
}

// newI8Exec binds a packed int8 executor to its PE.
func newI8Exec(b peBase) *peExec[int8] {
	x := &peExec[int8]{peBase: b, poolPlane: poolMaxPlaneI8}
	o := &i8Ops{x: x}
	o.tiles.ops, x.el = o, o
	return x
}

func (o *i8Ops) prepare(sz *scratchWords) {
	o.floatBuf = make([]float32, sz.vol)
	o.pairs = make([]uint32, sz.pairStack)
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

// conv runs the shared nests (convPass) over the stacked code planes, or the
// AVX2 tile over their pair planes, staged here when the tile runs: each
// output cell's whole chain is dequantized (acc · wScale · inScale + bias)
// and activated in float, and the layer output is requantized with a fresh
// per-tensor scale, from the per-channel magnitudes the stores kept instead
// of a scan of the output. The AVX2 tile clamps only for ReLU, so on it a
// Sigmoid or TanH layer is activated here and its scale scanned.
func (o *i8Ops) conv(stack []int8) float64 {
	p := &o.x.pass
	l := p.l
	chanMax := o.chanMax[:l.OutShape.Channels]
	clear(chanMax)
	o.convTiles(stack)
	fb := o.floatBuf[:len(p.out)]
	if o.tiles.tile8 && l.Activation != NoActivation && l.Activation != nn.ReLU {
		activateInPlace(l.Activation, fb)
		return o.closeLayer(fb)
	}
	outScale := float64(float32(quant.MaxAbsScale(float64(math.Float32frombits(slices.Max(chanMax))), quant.Int8))) // rounded as frameScale does
	quantizeCodes(p.out, fb, outScale)
	return outScale
}

// convTiles runs the conv layer in flight's nests over its stacked code
// planes, staging their pair planes first when the AVX2 tile runs.
func (o *i8Ops) convTiles(stack []int8) {
	l, st := o.x.pass.l, o.x.pass.st
	var pairs []uint32
	if len(st.taps2) > 0 {
		pairs = o.pairs[:(l.InShape.Channels+1)/2*l.PaddedHeight()*l.PaddedWidth()]
	}
	o.tiles.set(l, stack, st.q.w, st.taps, pairs, st.q.tapPairs, st.taps2, len(st.taps2))
	if o.tiles.tile8 {
		stagePairPlanes(pairs, stack, l)
	}
	o.tiles.run()
}

// tile8 and store4 are the int8 part of the shared conv nests (convOps). The
// AVX2 tile reads the pair planes at the tap-pair offsets and rows of the
// tap-pair table, and stores and folds its channels' sums itself, a repeated
// channel or row twice.
// store4 dequantizes and activates a Go tile's first n sums for channel fi,
// into the channel's float plane from pos on, and folds their magnitudes
// into the channel's maximum with tensorScale's comparison (a NaN is
// skipped): whole blocks of four on deqStore4 where the layer admits it
// (layerState.deq4), the rest on deqStoreGo. A recomputed tile stores equal
// values again, so each maximum is the scan's.
func (o *i8Ops) tile8(at, rowIn int, w [4]*uint32, f [4]int, pos, rowOut int) {
	p, c := &o.x.pass, &o.tiles
	hw, b, fb, m := p.l.OutShape.Height*p.l.OutShape.Width, p.st.b, o.floatBuf, o.chanMax
	convTile16I8(&c.stack8[at], &c.taps8[0], c.row8, w[0], w[1], w[2], w[3], rowIn,
		&fb[f[0]*hw+pos], &fb[f[1]*hw+pos], &fb[f[2]*hw+pos], &fb[f[3]*hw+pos], rowOut,
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
