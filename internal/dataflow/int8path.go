package dataflow

import (
	"fmt"
	"math"

	"condor/internal/diag"
	"condor/internal/fifo"
	"condor/internal/nn"
	"condor/internal/quant"
)

// This file is the packed int8 datapath: the fabric variant selected by
// Spec.WordBits == 8, where every FIFO word carries fifo.Int8Lanes quantized
// activation lanes. Each stream edge frames one image as a single float32
// scale-header word followed by PackedWords(volume) payload words; PEs unpack
// into int8, run conv/FC MACs in widened integer accumulators, dequantize once
// per layer to fold bias/activation/normalisation in float, and requantize
// with a fresh symmetric per-tensor scale at the PE boundary. Only the feeder
// quantizes float inputs and only the collector dequantizes back — in
// between, activations exist purely as packed lanes, which is what shrinks
// the stream traversal cycles and DDR bytes by the lane factor.
//
// The MAC loops multiply as the DSP48 the resource model prices does (two
// int8 MACs per DSP): two codes ride the 32-bit lanes of an int64 — adjacent
// output positions of a convolution (pairPlane), two neurons of an FC layer
// (packNeuronPairs) — so one multiply by a sign-extended code yields two
// products, and splitLanes takes both sums back out exactly while each fits
// int32, which rule CND026 guarantees. DESIGN.md §15 has the derivation.
//
// Unlike the float paths, results are not bit-identical to the oracle: the
// contract is bounded error, with the admissible deviation derived from the
// per-tensor scales recorded in RunStats (InputScale, MaxRequantScale). See
// quant_equiv_test.go.

// frameScale rounds a per-tensor scale to float32 before anything is
// quantized with it, so the exact value a header word can transport is also
// the value the codes were produced with.
func frameScale(data []float32) float64 {
	return float64(float32(quant.TensorScale(data, quant.Int8)))
}

// Int8AccumulatorRange enforces rule CND026 on one layer of a packed fabric:
// its accumulation depth (C·K² of a convolution, the input volume of an FC
// layer) times the largest code product 128² must stay below 2³¹, or a
// saturated input wraps the int32 accumulator lane and, with it, the lane
// packed beside it. Nil when the layer is in range.
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
// int8 grid, once per Instantiate, and shared read-only by every compute unit
// and every run, so batches never pay the weight-calibration scan again.
type int8LayerWeights struct {
	w      []int8  // conv codes
	wp     []int64 // FC codes, two neurons per word (packNeuronPairs)
	wScale float64
	b      []float32
}

// quantizeLayerWeights derives one compute layer's int8 codes from its float
// weight stream.
func quantizeLayerWeights(l *LayerHW, w, b []float32) int8LayerWeights {
	e := int8LayerWeights{wScale: frameScale(w), b: b}
	codes := make([]int8, len(w))
	quant.QuantizeInto(codes, w, e.wScale)
	if l.Kind == nn.FullyConnected {
		e.wp = packNeuronPairs(codes, l.InShape.Volume())
	} else {
		e.w = codes
	}
	return e
}

// packNeuronPairs packs an FC layer's row-major codes (v per neuron) two
// neurons to a word: word p·v+h carries neuron 2p's code for input h in the
// low lane and neuron 2p+1's (zero past an odd count) in the high lane.
func packNeuronPairs(codes []int8, v int) []int64 {
	wp := make([]int64, (len(codes)/v+1)/2*v)
	for oi := 0; oi*v < len(codes); oi++ {
		pair := wp[oi/2*v:][:v]
		for h, c := range codes[oi*v:][:v] {
			pair[h] += int64(c) << (oi % 2 * 32)
		}
	}
	return wp
}

// pairPlane stages a padded code plane as its pair plane: word i carries
// code i in the low lane and code i+stride — the same tap of the next output
// position's window — in the high lane (zero past the end of the plane).
func pairPlane(dst []int64, plane []int8, stride int) {
	for i, c := range plane {
		dst[i] = int64(c)
		if i+stride < len(plane) {
			dst[i] += int64(plane[i+stride]) << 32
		}
	}
}

// splitLanes recovers the two lane sums of a packed accumulator: a negative
// low sum borrows from the high lane, so it is read first and taken back out.
// Exact while both sums fit int32.
func splitLanes(v int64) (lo, hi int32) {
	lo = int32(uint32(v))
	return lo, int32((v - int64(lo)) >> 32)
}

// pushInt8Frame sends one image's codes downstream: the scale header, then
// the packed payload.
func pushInt8Frame(f *fifo.FIFO, words []fifo.Word, codes []int8, scale float64) {
	f.Push(fifo.Word(scale))
	fifo.PackInt8(words, codes)
	f.PushPacked(words[:fifo.PackedWords(len(codes))], int64(len(codes)))
}

// popInt8Frame receives one image's codes: header word, then payload.
func popInt8Frame(f *fifo.FIFO, words []fifo.Word, codes []int8) (float64, error) {
	sw, ok := f.Pop()
	if !ok {
		return 0, fmt.Errorf("input stream ended before the scale header")
	}
	need := fifo.PackedWords(len(codes))
	if n := f.PopPackedInto(words[:need], int64(len(codes))); n < need {
		return 0, fmt.Errorf("input stream ended after %d of %d packed words", n, need)
	}
	fifo.UnpackInt8(codes, words)
	return float64(sw), nil
}

// peExecInt8 executes one PE over a stream of images on the packed datapath.
// Layer resolution, the frame loop, output banding on the worker pool and
// windows gathered from the zero-padded channel planes are peStream's, as for
// peExec; the arithmetic is int8×int8 in lane-packed accumulators with one
// dequantize/requantize per layer boundary, and the stream traversal is
// modeled through LayerCyclesAt. Integer accumulation is exact and
// order-free; conv and FC layers run output-stationary — one band dispatch per
// layer, each cell's whole chain in a register — and the direct and
// im2col_gemm schedules share one kernel: the algorithm drives the cycle,
// resource and verification models only.
type peExecInt8 struct {
	peStream
	qw map[string]int8LayerWeights // Instantiate-time weight codes (prepare quantizes a layer it lacks)

	layers []peLayerInt8

	// pass is the layer pass in flight, written by popFrame, runLayer and
	// handOff and read by the band bodies.
	pass struct {
		l        *LayerHW
		st       *peLayerInt8
		cur, out []int8  // the layer's input and output codes
		inScale  float64 // scale of cur
		outScale float64 // scale of out, once the layer has run
	}

	// Scratch sized once in prepare for the PE's most demanding layer.
	curCodes []int8
	nxtCodes []int8
	floatBuf []float32   // a layer's results before requantization
	deqBuf   []float32   // a winograd_f23 layer's dequantized input volume
	planes   [][]int8    // zero-padded channel planes, one per Par.In band
	pairs    []int64     // the conv layer's pair planes, one per input channel
	wordBuf  []fifo.Word // a frame's packed payload
}

// peLayerInt8 is one fused layer's session-resolved state: what peStream
// resolved plus the layer's weight codes.
type peLayerInt8 struct {
	*layerState
	q int8LayerWeights
}

func (x *peExecInt8) prepare() error {
	sz, err := x.resolveLayers(bandFns{conv: x.convBand, pool: x.poolBand, fc: x.fcBand})
	if err != nil {
		return err
	}
	x.layers = make([]peLayerInt8, len(x.resolved))
	for li := range x.layers {
		l, st := &x.pe.Layers[li], &x.layers[li]
		st.layerState = &x.resolved[li]
		if st.w == nil {
			continue
		}
		if d := Int8AccumulatorRange(x.pe.ID, l); d != nil {
			return d
		}
		var ok bool
		if st.q, ok = x.qw[l.Name]; !ok {
			// Spec switched to WordBits==8 after Instantiate: derive the
			// codes here (the slow path the Instantiate-time cache avoids).
			st.q = quantizeLayerWeights(l, st.w, st.b)
		}
	}
	x.curCodes = make([]int8, sz.vol)
	x.nxtCodes = make([]int8, sz.vol)
	x.floatBuf = make([]float32, sz.vol)
	x.deqBuf = make([]float32, sz.winogradIn)
	x.wordBuf = make([]fifo.Word, fifo.PackedWords(sz.vol))
	x.planes = bandPlanes[int8](x.inBands, sz.plane)
	x.pairs = make([]int64, sz.stack)
	return nil
}

func (x *peExecInt8) popFrame() (err error) {
	p := &x.pass
	p.cur = x.curCodes[:x.pe.Layers[0].InShape.Volume()]
	p.inScale, err = popInt8Frame(x.in, x.wordBuf, p.cur)
	return err
}

func (x *peExecInt8) runLayer(li int) {
	p := &x.pass
	p.l, p.st = &x.pe.Layers[li], &x.layers[li]
	p.out = x.nxtCodes[:p.l.OutShape.Volume()]
	switch {
	case p.l.Kind == nn.FullyConnected:
		p.outScale = x.runFC()
	case p.l.Kind != nn.Conv: // sub-sampling: resolveLayers admits no other kind
		p.outScale = x.runPool()
	case p.l.Algo() == AlgoWinograd:
		p.outScale = x.runConvWinograd()
	default:
		p.outScale = x.runConv()
	}
	if p.outScale > x.stats.MaxRequantScale {
		x.stats.MaxRequantScale = p.outScale
	}
}

// handOff sends the fused intermediate through DDR as packed bytes (one per
// lane) and makes it the next layer's input.
func (x *peExecInt8) handOff(int) error {
	p := &x.pass
	x.dm.AccountWriteBytes(int64(len(p.out)))
	x.dm.AccountReadBytes(int64(len(p.out)))
	x.curCodes, x.nxtCodes = x.nxtCodes, x.curCodes
	p.cur, p.inScale = p.out, p.outScale
	return nil
}

func (x *peExecInt8) pushFrame() { pushInt8Frame(x.out, x.wordBuf, x.pass.out, x.pass.outScale) }

// requantize closes a layer: the float results in fb get a fresh symmetric
// per-tensor scale and land in the output codes.
func (x *peExecInt8) requantize(fb []float32) float64 {
	outScale := frameScale(fb)
	quant.QuantizeInto(x.pass.out, fb, outScale)
	return outScale
}

// runConv is the quantized convolutional PE, direct and im2col_gemm alike:
// every input channel's padded code plane is staged once as a pair plane,
// then one band dispatch computes each output cell's whole chain, dequantizes
// it (acc · wScale · inScale + bias) and activates it in float; the layer
// output is requantized with a fresh per-tensor scale.
func (x *peExecInt8) runConv() float64 {
	p := &x.pass
	l := p.l
	inHW := l.InShape.Height * l.InShape.Width
	outHW := l.OutShape.Height * l.OutShape.Width
	plane := l.PaddedHeight() * l.PaddedWidth()
	for ci := 0; ci < l.InShape.Channels; ci++ {
		pairPlane(x.pairs[ci*plane:][:plane], padPlane(x.planes[0], l, p.cur[ci*inHW:(ci+1)*inHW]), l.Stride)
	}
	x.pool.bands(l.OutShape.Channels, x.outBands, x.fns.conv)
	x.accountConv(l, p.st.streamWords, outHW, l.Kernel*l.Kernel)
	return x.requantize(x.floatBuf[:l.OutShape.Channels*outHW])
}

// convBand computes output channels [lo,hi) of the layer in flight, two
// channels × convPosTile positions per register tile: output-channel pair →
// row → tile → input channel → tap, accumulators never leaving registers.
func (x *peExecInt8) convBand(_, lo, hi int) {
	p := &x.pass
	l := p.l
	stride, pw := l.Stride, l.PaddedWidth()
	outH, outW := l.OutShape.Height, l.OutShape.Width
	deq := p.st.q.wScale * p.inScale
	taps := p.st.taps
	for fi := lo; fi < hi; fi += 2 {
		// An odd band ends on a lone channel: run it as both halves of the
		// tile (same values computed twice, stored once).
		fj := min(fi+1, hi-1)
		w0, w1 := p.st.q.w[fi*len(taps):][:len(taps)], p.st.q.w[fj*len(taps):][:len(taps)]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox += convPosTile {
				// Positions ox,ox+1 share one pair word per tap, ox+2,ox+3
				// the word two strides on; a row's last tile may have no
				// second pair and recomputes the first instead.
				n := min(convPosTile, outW-ox)
				win := x.pairs[oy*stride*pw+ox*stride:]
				win2 := win
				if n > 2 {
					win2 = win[2*stride:]
				}
				a01, a23, b01, b23 := convTile(win, win2, w0, w1, taps)
				x.convStore(fi, oy*outW+ox, n, a01, a23, deq)
				if fj != fi {
					x.convStore(fj, oy*outW+ox, n, b01, b23, deq)
				}
			}
		}
	}
}

// convTile is the MAC chain of one register tile, every input channel and
// tap in one flat loop: win and win2 start at the top-left pair words of the
// tile's two position pairs in channel 0's plane, w0 and w1 are the output
// channels' weights. Kept out of line so that its loop, not convBand's nest,
// decides what stays in registers.
//
//go:noinline
func convTile(win, win2 []int64, w0, w1 []int8, taps []int32) (a01, a23, b01, b23 int64) {
	w0, w1 = w0[:len(taps)], w1[:len(taps)]
	for t, o := range taps {
		u, v := int64(w0[t]), int64(w1[t])
		x01, x23 := win[o], win2[o]
		a01 += u * x01
		a23 += u * x23
		b01 += v * x01
		b23 += v * x23
	}
	return
}

// convStore dequantizes and activates the first n of the four position sums
// two packed accumulators carry, into channel fi's float plane from pos on.
func (x *peExecInt8) convStore(fi, pos, n int, a01, a23 int64, deq float64) {
	l, bias := x.pass.l, float64(biasAt(x.pass.st.b, fi))
	var acc [convPosTile]int32
	acc[0], acc[1] = splitLanes(a01)
	acc[2], acc[3] = splitLanes(a23)
	fb := x.floatBuf[fi*l.OutShape.Height*l.OutShape.Width+pos:][:n]
	for i := range fb {
		fb[i] = applyActivation(l.Activation, float32(float64(acc[i])*deq+bias))
	}
}

// runPool is the quantized sub-sampling PE. Max pooling with no folded
// activation stays entirely on the int8 grid — max commutes with the
// monotone dequantization, so the pass is exact and the input scale passes
// through. Average pooling (and any folded activation) accumulates in int32,
// dequantizes, applies the float stage and requantizes.
func (x *peExecInt8) runPool() float64 {
	p := &x.pass
	l := p.l
	n := l.InShape.Channels * l.OutShape.Height * l.OutShape.Width
	// Channel maps are independent; bands shard whole channels, each padding
	// into its own plane.
	x.pool.bands(l.InShape.Channels, x.inBands, x.fns.pool)
	x.stats.WindowsRead += int64(n)
	if l.Kind == nn.MaxPool && l.Activation == NoActivation {
		return p.inScale
	}
	return x.requantize(x.floatBuf[:n])
}

// poolBand sub-samples channels [lo,hi).
func (x *peExecInt8) poolBand(band, lo, hi int) {
	p := &x.pass
	l := p.l
	k, stride, pw := l.Kernel, l.Stride, l.PaddedWidth()
	outH, outW := l.OutShape.Height, l.OutShape.Width
	inHW := l.InShape.Height * l.InShape.Width
	isMax := l.Kind == nn.MaxPool
	pureMax := isMax && l.Activation == NoActivation
	inScale := p.inScale
	inv := inScale / float64(k*k)
	out, fb := p.out, x.floatBuf
	for ci := lo; ci < hi; ci++ {
		padded := padPlane(x.planes[band], l, p.cur[ci*inHW:(ci+1)*inHW])
		base := ci * outH * outW
		for oy := 0; oy < outH; oy++ {
			iy0 := oy * stride
			for ox := 0; ox < outW; ox++ {
				ix0 := ox * stride
				if isMax {
					v := int8(math.MinInt8)
					for m := 0; m < k; m++ {
						row := padded[(iy0+m)*pw+ix0:]
						for n := 0; n < k; n++ {
							if row[n] > v {
								v = row[n]
							}
						}
					}
					if pureMax {
						out[base+oy*outW+ox] = v
					} else {
						fb[base+oy*outW+ox] = applyActivation(l.Activation, float32(float64(v)*inScale))
					}
				} else {
					var sum int32
					for m := 0; m < k; m++ {
						row := padded[(iy0+m)*pw+ix0:]
						for n := 0; n < k; n++ {
							sum += int32(row[n])
						}
					}
					fb[base+oy*outW+ox] = applyActivation(l.Activation, float32(float64(sum)*inv))
				}
			}
		}
	}
}

// runFC is the quantized fully-connected PE: each output neuron's integer
// accumulation walks the input lanes, then the whole vector is dequantized,
// biased, activated, normalized (LogSoftMax/SoftMax in float — the paper
// folds normalisation into the last PE) and requantized for the output
// frame.
func (x *peExecInt8) runFC() float64 {
	p := &x.pass
	l := p.l
	o := l.OutShape.Channels
	x.dm.AccountReadBytes(p.st.streamWords)
	fb := x.floatBuf[:o]
	x.pool.bands(o, x.outBands, x.fns.fc)
	x.stats.MACs += int64(o) * int64(l.InShape.Volume())
	for i := range fb {
		fb[i] = applyActivation(l.Activation, fb[i])
	}
	if l.Normalize != NoActivation {
		normalizeInPlace(l.Normalize, fb)
	}
	return x.requantize(fb)
}

// fcPairTile neuron pairs — eight neurons — share one input load in fcBand.
const fcPairTile = 4

// fcBand accumulates, dequantizes and biases neurons [lo,hi). Neurons live
// two to a weight word, so the band walks the pairs that overlap it; a pair
// a band boundary splits is computed by both neighbours and each keeps its
// own lane.
func (x *peExecInt8) fcBand(_, lo, hi int) {
	p := &x.pass
	in := p.cur
	v := len(in)
	wp := p.st.q.wp
	pr, end := lo/2, (hi+1)/2
	for ; pr+fcPairTile <= end; pr += fcPairTile {
		w0, w1, w2, w3 := wp[pr*v:][:v], wp[(pr+1)*v:][:v], wp[(pr+2)*v:][:v], wp[(pr+3)*v:][:v]
		var a0, a1, a2, a3 int64
		for h, c := range in {
			xv := int64(c)
			a0 += w0[h] * xv
			a1 += w1[h] * xv
			a2 += w2[h] * xv
			a3 += w3[h] * xv
		}
		x.fcStore(pr, a0, lo, hi)
		x.fcStore(pr+1, a1, lo, hi)
		x.fcStore(pr+2, a2, lo, hi)
		x.fcStore(pr+3, a3, lo, hi)
	}
	for ; pr < end; pr++ {
		var a int64
		for h, wv := range wp[pr*v:][:v] {
			a += wv * int64(in[h])
		}
		x.fcStore(pr, a, lo, hi)
	}
}

// fcStore dequantizes the two neurons of pair pr, keeping those in [lo,hi).
func (x *peExecInt8) fcStore(pr int, a int64, lo, hi int) {
	p := &x.pass
	var acc [2]int32
	acc[0], acc[1] = splitLanes(a)
	for i, s := range acc {
		if oi := 2*pr + i; oi >= lo && oi < hi {
			x.floatBuf[oi] = float32(float64(s)*(p.st.q.wScale*p.inScale) + float64(biasAt(p.st.b, oi)))
		}
	}
}
