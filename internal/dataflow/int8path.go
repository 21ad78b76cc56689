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
// int32, which rule CND026 guarantees. Where the CPU has AVX2 the same sums
// come from VPMADDWD tiles (convtile_amd64.s) sixteen int16 products per
// instruction: the conv tile over the padded codes stacked one byte each and
// a tap-pair weight table (pairWeights), the FC kernel over row-major codes.
// Integer sums are exact, so both kernels give the same int32s. DESIGN.md
// §15 has the derivations.
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
	w        []int8   // conv codes; FC codes, row-major, where the AVX2 FC kernel runs
	wp       []int64  // FC codes, two neurons per word (packNeuronPairs), for the Go FC kernel
	tapPairs []uint32 // conv codes by tap pair (pairWeights), for the AVX2 conv tile
	wScale   float64
	b        []float32
}

// quantizeLayerWeights derives one compute layer's int8 codes from its float
// weight stream, in the layouts this CPU's kernels read.
func quantizeLayerWeights(l *LayerHW, w, b []float32) int8LayerWeights {
	e := int8LayerWeights{wScale: frameScale(w), b: b, w: make([]int8, len(w))}
	quant.QuantizeInto(e.w, w, e.wScale)
	switch {
	case l.Kind == nn.FullyConnected && !haveAVX2:
		e.wp, e.w = packNeuronPairs(e.w, l.InShape.Volume()), nil
	case l.Kind == nn.Conv && haveAVX2:
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
// dequantize/requantize per layer boundary, and the layer schedule models the
// packed stream traversal. Integer accumulation is exact and
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
		stack    []int8  // an AVX2 conv layer's stacked zero-padded code planes
		inScale  float64 // scale of cur
		outScale float64 // scale of out, once the layer has run
	}

	// Scratch sized once in prepare for the PE's most demanding layer.
	curCodes []int8
	nxtCodes []int8
	floatBuf []float32   // a layer's results before requantization
	deqBuf   []float32   // a winograd_f23 layer's dequantized input volume
	planes   [][]int8    // zero-padded channel planes, one per Par.In band
	stack    []int8      // the padded code planes of an AVX2 conv layer, one byte per code
	pairs    []int64     // a Go-tile conv layer's pair planes, one per input channel
	wordBuf  []fifo.Word // a frame's packed payload
}

// peLayerInt8 is one fused layer's session-resolved state: what peStream
// resolved plus the layer's weight codes and, for a conv or FC layer, which
// kernel runs it.
type peLayerInt8 struct {
	*layerState
	q     int8LayerWeights
	tile8 bool    // the layer runs on the AVX2 kernel (convTile8I8, fcDot4I8)
	taps2 []int32 // an AVX2 conv layer's tap table padded to whole pairs
}

func (x *peExecInt8) prepare() error {
	sz, err := x.resolveLayers(bandFns{conv: x.convBand, pool: x.poolBand, fc: x.fcBand})
	if err != nil {
		return err
	}
	x.layers = make([]peLayerInt8, len(x.resolved))
	var stack, pairs int
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
		switch {
		case l.Kind == nn.FullyConnected:
			// The AVX2 kernel reads every row whole; the codes are row-major
			// only where it runs.
			st.tile8 = haveAVX2 && len(st.q.w) == l.OutShape.Channels*l.InShape.Volume()
		case st.taps != nil:
			// The stack the tile gathers from: the staged padded planes, or an
			// unpadded input volume in place — C planes either way.
			n := l.InShape.Channels * l.PaddedHeight() * l.PaddedWidth()
			taps := pairTaps(st.taps)
			if st.tile8 = convTile8OK(l, taps, len(taps)/2, len(st.q.tapPairs), n); !st.tile8 {
				pairs = max(pairs, n)
				continue
			}
			st.taps2 = taps
			if l.Pad > 0 {
				stack = max(stack, n)
			}
		}
	}
	x.curCodes = make([]int8, sz.vol)
	x.nxtCodes = make([]int8, sz.vol)
	x.floatBuf = make([]float32, sz.vol)
	x.deqBuf = make([]float32, sz.winogradIn)
	x.wordBuf = make([]fifo.Word, fifo.PackedWords(sz.vol))
	x.planes = bandPlanes[int8](x.inBands, sz.plane)
	x.stack = make([]int8, stack)
	x.pairs = make([]int64, pairs)
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
// every input channel's padded code plane is staged once — stacked one byte
// per code for the AVX2 tile (an unpadded input volume already is that
// stack), as a pair plane for the Go tile — then one band dispatch computes
// each output cell's whole chain, dequantizes it (acc · wScale · inScale +
// bias) and activates it in float; the layer output is requantized with a
// fresh per-tensor scale.
func (x *peExecInt8) runConv() float64 {
	p := &x.pass
	l := p.l
	inHW := l.InShape.Height * l.InShape.Width
	outHW := l.OutShape.Height * l.OutShape.Width
	plane := l.PaddedHeight() * l.PaddedWidth()
	switch {
	case !p.st.tile8:
		for ci := 0; ci < l.InShape.Channels; ci++ {
			pairPlane(x.pairs[ci*plane:][:plane], padPlane(x.planes[0], l, p.cur[ci*inHW:(ci+1)*inHW]), l.Stride)
		}
	case l.Pad > 0:
		p.stack = x.stack[:l.InShape.Channels*plane]
		for ci := 0; ci < l.InShape.Channels; ci++ {
			padPlane(p.stack[ci*plane:], l, p.cur[ci*inHW:(ci+1)*inHW])
		}
	default:
		p.stack = p.cur
	}
	x.pool.bands(l.OutShape.Channels, x.outBands, x.fns.conv)
	return x.requantize(x.floatBuf[:l.OutShape.Channels*outHW])
}

// convBand computes output channels [lo,hi) of the layer in flight, two
// channels × convPosTile positions per register tile: output-channel pair →
// row → tile → input channel → tap, accumulators never leaving registers. A
// layer that resolved to the AVX2 tile goes to convBand8 instead; this Go
// tile is the path for every other layer and platform, and the AVX2 tile's
// reference.
func (x *peExecInt8) convBand(_, lo, hi int) {
	if x.pass.st.tile8 {
		x.convBand8(lo, hi)
		return
	}
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
				a := splitTile(a01, a23)
				x.convStore(fi, oy*outW+ox, a[:n], deq)
				if fj != fi {
					b := splitTile(b01, b23)
					x.convStore(fj, oy*outW+ox, b[:n], deq)
				}
			}
		}
	}
}

// convBand8 is convBand on the AVX2 tile, four channels × convLanes
// positions per call. A row's last tile starts at outW-convLanes and
// recomputes the positions it shares with the tile before (the same sums,
// stored again); a band ending inside a quad repeats its last channel.
func (x *peExecInt8) convBand8(lo, hi int) {
	p := &x.pass
	l := p.l
	pw, outH, outW := l.PaddedWidth(), l.OutShape.Height, l.OutShape.Width
	deq := p.st.q.wScale * p.inScale
	taps, pairs := p.st.taps2, len(p.st.taps2)/2
	var acc [4][convLanes]int32
	for fi := lo; fi < hi; fi += 4 {
		var f [4]int
		var w [4]*uint32
		for j := range f {
			f[j] = min(fi+j, hi-1)
			w[j] = &p.st.q.tapPairs[f[j]*pairs]
		}
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox += convLanes {
				col := min(ox, outW-convLanes)
				convTile8I8(&p.stack[oy*pw+col], &taps[0], pairs, w[0], w[1], w[2], w[3], &acc)
				for j := range f {
					if j == 0 || f[j] != f[j-1] {
						x.convStore(f[j], oy*outW+col, acc[j][:], deq)
					}
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

// splitTile takes the four position sums of a Go tile's channel out of its
// two packed accumulators.
func splitTile(a01, a23 int64) (acc [convPosTile]int32) {
	acc[0], acc[1] = splitLanes(a01)
	acc[2], acc[3] = splitLanes(a23)
	return acc
}

// convStore dequantizes and activates a tile's position sums for one
// channel, into channel fi's float plane from pos on.
func (x *peExecInt8) convStore(fi, pos int, acc []int32, deq float64) {
	l, bias := x.pass.l, float64(biasAt(x.pass.st.b, fi))
	fb := x.floatBuf[fi*l.OutShape.Height*l.OutShape.Width+pos:][:len(acc)]
	for i, a := range acc {
		fb[i] = float32(float64(a)*deq + bias)
	}
	activateInPlace(l.Activation, fb)
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
						fb[base+oy*outW+ox] = float32(float64(v) * inScale)
					}
				} else {
					var sum int32
					for m := 0; m < k; m++ {
						row := padded[(iy0+m)*pw+ix0:]
						for n := 0; n < k; n++ {
							sum += int32(row[n])
						}
					}
					fb[base+oy*outW+ox] = float32(float64(sum) * inv)
				}
			}
		}
		if !pureMax {
			activateInPlace(l.Activation, fb[base:][:outH*outW])
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
	fb := x.floatBuf[:l.OutShape.Channels]
	x.pool.bands(len(fb), x.outBands, x.fns.fc)
	activateInPlace(l.Activation, fb)
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
// own lane. A layer that resolved to the AVX2 kernel goes to fcBand8
// instead; this is the path on every other platform, and its reference.
func (x *peExecInt8) fcBand(_, lo, hi int) {
	if x.pass.st.tile8 {
		x.fcBand8(lo, hi)
		return
	}
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
		x.fcStorePair(pr, a0, lo, hi)
		x.fcStorePair(pr+1, a1, lo, hi)
		x.fcStorePair(pr+2, a2, lo, hi)
		x.fcStorePair(pr+3, a3, lo, hi)
	}
	for ; pr < end; pr++ {
		var a int64
		for h, wv := range wp[pr*v:][:v] {
			a += wv * int64(in[h])
		}
		x.fcStorePair(pr, a, lo, hi)
	}
}

// fcBand8 is fcBand on the AVX2 kernel: four neurons' code rows against the
// input per call, sixteen codes per step; each neuron's eight lane sums and
// the inputs past the last whole block are added up here. A band ending
// inside a quad repeats its last neuron.
func (x *peExecInt8) fcBand8(lo, hi int) {
	p := &x.pass
	in, w := p.cur, p.st.q.w
	v := len(in)
	body := v &^ 15
	var acc [4][convLanes]int32
	for oi := lo; oi < hi; oi += 4 {
		var f [4]int
		for j := range f {
			f[j] = min(oi+j, hi-1)
		}
		fcDot4I8(&in[0], body/16, &w[f[0]*v], &w[f[1]*v], &w[f[2]*v], &w[f[3]*v], &acc)
		for j := range f {
			if j > 0 && f[j] == f[j-1] {
				continue
			}
			var s int32
			for _, a := range acc[j] {
				s += a
			}
			for h, c := range w[f[j]*v+body : (f[j]+1)*v] {
				s += int32(c) * int32(in[body+h])
			}
			x.fcStore(f[j], s)
		}
	}
}

// fcStorePair dequantizes the two neurons of pair pr, keeping those in
// [lo,hi).
func (x *peExecInt8) fcStorePair(pr int, a int64, lo, hi int) {
	var acc [2]int32
	acc[0], acc[1] = splitLanes(a)
	for i, s := range acc {
		if oi := 2*pr + i; oi >= lo && oi < hi {
			x.fcStore(oi, s)
		}
	}
}

// fcStore dequantizes and biases neuron oi's sum.
func (x *peExecInt8) fcStore(oi int, s int32) {
	p := &x.pass
	x.floatBuf[oi] = float32(float64(s)*(p.st.q.wScale*p.inScale) + float64(biasAt(p.st.b, oi)))
}
