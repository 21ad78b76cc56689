package dataflow

import (
	"fmt"
	"math"

	"condor/internal/fifo"
	"condor/internal/nn"
	"condor/internal/quant"
)

// This file is the packed int8 datapath: the fabric variant selected by
// Spec.WordBits == 8, where every FIFO word carries fifo.Int8Lanes quantized
// activation lanes. Each stream edge frames one image as a single float32
// scale-header word followed by PackedWords(volume) payload words; PEs unpack
// into int8, run conv/FC MACs in widened int32 accumulators, dequantize once
// per layer to fold bias/activation/normalisation in float, and requantize
// with a fresh symmetric per-tensor scale at the PE boundary. Only the feeder
// quantizes float inputs and only the collector dequantizes back — in
// between, activations exist purely as packed lanes, which is what shrinks
// the stream traversal cycles and DDR bytes by the lane factor.
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

// int8LayerWeights is one layer's weights pre-quantized onto the symmetric
// int8 grid. Built once per Instantiate (after the store seals) and shared
// read-only by every compute unit and every run, so batches never pay the
// weight-calibration scan again.
type int8LayerWeights struct {
	w      []int8
	wScale float64
	b      []float32
}

// quantizeWeightStore derives the int8 weight codes for every compute layer
// of a packed spec from the sealed datamover store.
func quantizeWeightStore(spec *Spec, dm *Datamover) (map[string]int8LayerWeights, error) {
	out := make(map[string]int8LayerWeights)
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			l := &pe.Layers[i]
			if l.Kind != nn.Conv && l.Kind != nn.FullyConnected {
				continue
			}
			w, b, err := dm.WeightsRef(l.Name)
			if err != nil {
				return nil, fmt.Errorf("dataflow: layer %q: %w", l.Name, err)
			}
			e := int8LayerWeights{wScale: frameScale(w), b: b}
			e.w = make([]int8, len(w))
			quant.QuantizeInto(e.w, w, e.wScale)
			out[l.Name] = e
		}
	}
	return out, nil
}

// growSlice returns s resized to n, reallocating only when capacity is
// short. Contents are unspecified — callers overwrite or clear.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
// The schedule (channel passes, output banding on the worker pool, fused-layer
// handoffs, windows gathered from the zero-padded channel plane) mirrors
// peExec; the arithmetic is int8×int8→int32 with one dequantize/requantize
// per layer boundary, and the stream traversal is modeled through
// LayerCyclesAt.
type peExecInt8 struct {
	peStream
	qw map[string]int8LayerWeights // Instantiate-time weight codes (nil → quantize in prepare)
	wg map[string][]float32        // Winograd-transformed float weights (winograd_f23 layers)

	layers []peLayerInt8

	// pass is the layer pass in flight, written by the run* methods before
	// each band dispatch and read by the band bodies.
	pass struct {
		l        *LayerHW
		st       *peLayerInt8
		cur, out []int8  // the layer's input and output codes
		inScale  float64 // scale of cur
		ci       int     // input channel of the conv pass
		plane    []int8  // its zero-padded code plane
	}

	// Scratch reused across layers and images.
	curCodes []int8
	nxtCodes []int8
	floatBuf []float32
	partial  []int32
	padBuf   []int8
	wordBuf  []fifo.Word
	panel    []int8    // im2col panel (GEMM mode), K² tap-major rows
	padF     []float32 // dequantized padded channel plane (Winograd mode)
	vBuf     []float32 // Winograd transformed input tiles
	mBuf     []float32 // Winograd transform-domain accumulators
	mags     []float64 // Winograd per-band output magnitudes
}

// peLayerInt8 is one fused layer's batch-resolved state: weight codes on the
// symmetric int8 grid plus their scale, and the float bias folded at
// dequantization time.
type peLayerInt8 struct {
	w           []int8
	wScale      float64
	b           []float32
	wg          []float32 // Winograd-transformed float weights (winograd_f23 layers only)
	streamBytes int64     // weight+bias bytes re-read from DDR per image (0 when on-chip)
}

func (x *peExecInt8) prepare() error {
	x.layers = make([]peLayerInt8, len(x.pe.Layers))
	for li := range x.pe.Layers {
		l := &x.pe.Layers[li]
		st := &x.layers[li]
		if l.Kind != nn.Conv && l.Kind != nn.FullyConnected {
			continue
		}
		if e, ok := x.qw[l.Name]; ok {
			st.w, st.wScale, st.b = e.w, e.wScale, e.b
		} else {
			// Spec switched to WordBits==8 after Instantiate: derive the
			// codes here (the slow path the Instantiate-time cache avoids).
			w, b, err := x.dm.WeightsRef(l.Name)
			if err != nil {
				return fmt.Errorf("layer %q: %w", l.Name, err)
			}
			st.wScale = frameScale(w)
			st.w = make([]int8, len(w))
			quant.QuantizeInto(st.w, w, st.wScale)
			st.b = b
		}
		if len(st.w) != l.WeightWords() {
			return fmt.Errorf("layer %q: weight stream has %d words, want %d", l.Name, len(st.w), l.WeightWords())
		}
		if !x.pe.WeightsOnChip {
			st.streamBytes = int64(len(st.w) + len(st.b))
		}
		if l.Kind == nn.Conv && l.Algo() == AlgoWinograd {
			// The transform domain stays float on the packed datapath (the
			// ±½ combinations do not survive the int8 grid): the EWMM runs
			// on dequantized tiles against the float transformed weights.
			if !WinogradOK(l.Kernel, l.Stride, l.OutShape) {
				return fmt.Errorf("layer %q: winograd_f23 requires a 3×3/stride-1 kernel and 2×2-tile-aligned output, got k=%d s=%d out %dx%d",
					l.Name, l.Kernel, l.Stride, l.OutShape.Height, l.OutShape.Width)
			}
			st.wg = x.wg[l.Name]
			if st.wg == nil {
				w, _, err := x.dm.WeightsRef(l.Name)
				if err != nil {
					return fmt.Errorf("layer %q: %w", l.Name, err)
				}
				st.wg = winogradTransformWeights(w, l.InShape.Channels, l.OutShape.Channels)
			}
		}
	}
	x.startPool(bandFns{conv: x.convBand, gemm: x.gemmBand, wgMul: x.winogradMulBand, wgInv: x.winogradInverseBand,
		tail: x.tailBand, pool: x.poolBand, fc: x.fcBand})
	x.mags = make([]float64, x.outBands)
	return nil
}

func (x *peExecInt8) runImage() error {
	lanes := fifo.Int8Lanes
	vol := x.pe.Layers[0].InShape.Volume()
	x.curCodes = growSlice(x.curCodes, vol)
	x.wordBuf = growSlice(x.wordBuf, fifo.PackedWords(vol))
	scale, err := popInt8Frame(x.in, x.wordBuf, x.curCodes)
	if err != nil {
		return err
	}
	x.stats.ElemsIn += int64(vol)

	cur := x.curCodes
	for li := range x.pe.Layers {
		l := &x.pe.Layers[li]
		st := &x.layers[li]
		if len(cur) != l.InShape.Volume() {
			return fmt.Errorf("fused intermediate has %d lanes, layer expects %d", len(cur), l.InShape.Volume())
		}
		outVol := l.OutShape.Volume()
		x.nxtCodes = growSlice(x.nxtCodes, outVol)
		out := x.nxtCodes

		sid := 0
		if x.track != nil {
			sid = x.track.Begin(l.Name, x.stats.Cycles)
		}

		x.pass.l, x.pass.st, x.pass.cur, x.pass.out, x.pass.inScale = l, st, cur, out, scale
		var outScale float64
		switch l.Kind {
		case nn.Conv:
			switch l.Algo() {
			case AlgoGEMM:
				outScale = x.runConvGEMM()
			case AlgoWinograd:
				outScale = x.runConvWinograd()
			default:
				outScale = x.runConv()
			}
		case nn.MaxPool, nn.AvgPool:
			outScale = x.runPool()
		case nn.FullyConnected:
			outScale = x.runFC()
		default:
			return fmt.Errorf("layer %q: unsupported PE kind %v", l.Name, l.Kind)
		}
		x.stats.Cycles += LayerCyclesAt(l, x.pe.Par, lanes)
		if outScale > x.stats.MaxRequantScale {
			x.stats.MaxRequantScale = outScale
		}

		if li == len(x.pe.Layers)-1 {
			x.wordBuf = growSlice(x.wordBuf, fifo.PackedWords(outVol))
			pushInt8Frame(x.out, x.wordBuf, out, outScale)
			x.stats.ElemsOut += int64(outVol)
		} else {
			// Fused-layer handoff: the intermediate rides through DDR as
			// packed bytes (one per lane), half the round trip each way.
			x.dm.AccountWriteBytes(int64(outVol))
			x.dm.AccountReadBytes(int64(outVol))
			x.stats.Cycles += 2 * ceilDiv64(int64(outVol), int64(lanes))
		}
		if x.track != nil {
			x.track.AddWords(sid, int64(fifo.PackedWords(outVol)))
			x.track.End(sid, x.stats.Cycles)
		}
		x.curCodes, x.nxtCodes = x.nxtCodes, x.curCodes
		cur, scale = out, outScale
	}
	return nil
}

// padChannel returns the channel's zero-padded code plane (padPlane over
// the executor's single-pass scratch). Unpadded layers never touch the
// scratch, which is what lets their pool bands share the executor.
func (x *peExecInt8) padChannel(l *LayerHW, chmap []int8) []int8 {
	if l.Pad == 0 {
		return chmap
	}
	x.padBuf = growSlice(x.padBuf, l.PaddedHeight()*l.PaddedWidth())
	return padPlane(x.padBuf, l, chmap)
}

// padPass stages a direct-convolution pass: the channel's padded code plane.
func (x *peExecInt8) padPass(chmap []int8) { x.pass.plane = x.padChannel(x.pass.l, chmap) }

// convPasses is the channel-pass loop the int8 convolution algorithms
// share: per input channel, stage the pass (pad the code plane, unroll the
// panel, or dequantize and transform the tiles), fan the MAC band body
// across the Par.Out bands, and account the pass exactly as peExec does.
func (x *peExecInt8) convPasses(windows, macs int, stage func(chmap []int8), band bandFunc) {
	p := &x.pass
	l := p.l
	c, f := l.InShape.Channels, l.OutShape.Channels
	inHW := l.InShape.Height * l.InShape.Width
	spill := int64(f * l.OutShape.Height * l.OutShape.Width)
	if p.st.streamBytes > 0 {
		x.dm.AccountReadBytes(p.st.streamBytes)
	}
	for ci := 0; ci < c; ci++ {
		p.ci = ci
		stage(p.cur[ci*inHW : (ci+1)*inHW])
		x.pool.bands(f, x.outBands, band)
		x.stats.WindowsRead += int64(windows)
		x.stats.MACs += int64(f) * int64(macs) * int64(windows)
		if !x.pe.PartialsOnChip {
			x.dm.AccountPartialSpill(spill)
			x.stats.SpilledPartial += spill
		}
	}
}

// requantize closes a layer: the float results in fb get a fresh symmetric
// per-tensor scale and land in the output codes.
func (x *peExecInt8) requantize(fb []float32) float64 {
	outScale := frameScale(fb)
	quant.QuantizeInto(x.pass.out, fb, outScale)
	return outScale
}

// runConv is the quantized convolutional PE: per input-channel pass, every
// window position accumulates int8 products into the int32 partial buffer,
// output channels banded across the worker pool. After the last pass the
// accumulators are dequantized (acc · wScale · inScale + bias), activated in
// float, and requantized with a fresh per-tensor scale.
func (x *peExecInt8) runConv() float64 {
	l := x.pass.l
	outHW := l.OutShape.Height * l.OutShape.Width
	x.partial = growSlice(x.partial, l.OutShape.Channels*outHW)
	clear(x.partial)
	x.convPasses(outHW, l.Kernel*l.Kernel, x.padPass, x.fns.conv)
	return x.convTail()
}

// convBand adds input channel pass.ci's int8 products to the partial sums
// of output channels [lo,hi).
func (x *peExecInt8) convBand(_, lo, hi int) {
	p := &x.pass
	l := p.l
	c, k, stride, pw := l.InShape.Channels, l.Kernel, l.Stride, l.PaddedWidth()
	kk := k * k
	outH, outW := l.OutShape.Height, l.OutShape.Width
	outHW := outH * outW
	padded, partial, wq := p.plane, x.partial, p.st.w
	for fi := lo; fi < hi; fi++ {
		wbase := (fi*c + p.ci) * kk
		off := fi * outHW
		for oy := 0; oy < outH; oy++ {
			iy0 := oy * stride
			for ox := 0; ox < outW; ox++ {
				ix0 := ox * stride
				var acc int32
				if k == 5 {
					// The paper's models are all 5×5 convs; a fixed
					// unroll with full-length slices lets the compiler
					// drop every bounds check from the MAC chain.
					for m := 0; m < 5; m++ {
						rb, wb := (iy0+m)*pw+ix0, wbase+m*5
						r := padded[rb : rb+5]
						w := wq[wb : wb+5]
						acc += int32(w[0])*int32(r[0]) + int32(w[1])*int32(r[1]) +
							int32(w[2])*int32(r[2]) + int32(w[3])*int32(r[3]) +
							int32(w[4])*int32(r[4])
					}
				} else {
					for m := 0; m < k; m++ {
						row := padded[(iy0+m)*pw+ix0:]
						wrow := wq[wbase+m*k:]
						for n := 0; n < k; n++ {
							acc += int32(wrow[n]) * int32(row[n])
						}
					}
				}
				partial[off+oy*outW+ox] += acc
			}
		}
	}
}

// convTail dequantizes the int32 accumulators, folds bias and activation in
// float (banded over output channels) and requantizes the layer's output.
func (x *peExecInt8) convTail() float64 {
	l := x.pass.l
	n := l.OutShape.Volume()
	x.floatBuf = growSlice(x.floatBuf, n)
	x.pool.bands(l.OutShape.Channels, x.outBands, x.fns.tail)
	return x.requantize(x.floatBuf[:n])
}

func (x *peExecInt8) tailBand(_, lo, hi int) {
	p := &x.pass
	outHW := p.l.OutShape.Height * p.l.OutShape.Width
	act, b := p.l.Activation, p.st.b
	deq := p.st.wScale * p.inScale
	for fi := lo; fi < hi; fi++ {
		var bias float64
		if len(b) > 0 {
			bias = float64(b[fi])
		}
		part := x.partial[fi*outHW:][:outHW]
		fb := x.floatBuf[fi*outHW:][:outHW]
		for pos, acc := range part {
			fb[pos] = applyActivation(act, float32(float64(acc)*deq+bias))
		}
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
	pureMax := l.Kind == nn.MaxPool && l.Activation == NoActivation
	if !pureMax {
		x.floatBuf = growSlice(x.floatBuf, n)
	}
	// Channel maps are independent; bands shard whole channels. x.padBuf is
	// single-pass state, so a padded layer runs its channels in sequence.
	inBands := x.inBands
	if l.Pad != 0 {
		inBands = 1
	}
	x.pool.bands(l.InShape.Channels, inBands, x.fns.pool)
	x.stats.WindowsRead += int64(n)
	if pureMax {
		return p.inScale
	}
	return x.requantize(x.floatBuf[:n])
}

// poolBand sub-samples channels [lo,hi).
func (x *peExecInt8) poolBand(_, lo, hi int) {
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
		padded := x.padChannel(l, p.cur[ci*inHW:(ci+1)*inHW])
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

// runFC is the quantized fully-connected PE: each output neuron's int32
// accumulation walks the packed input lanes, then the whole vector is
// dequantized, biased, activated, normalized (LogSoftMax/SoftMax in float —
// the paper folds normalisation into the last PE) and requantized for the
// output frame.
func (x *peExecInt8) runFC() float64 {
	p := &x.pass
	l := p.l
	o := l.OutShape.Channels
	if p.st.streamBytes > 0 {
		x.dm.AccountReadBytes(p.st.streamBytes)
	}
	x.floatBuf = growSlice(x.floatBuf, o)
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

// fcBand accumulates, dequantizes and biases neurons [lo,hi).
func (x *peExecInt8) fcBand(_, lo, hi int) {
	p := &x.pass
	in := p.cur
	v := len(in)
	deq := p.st.wScale * p.inScale
	for oi := lo; oi < hi; oi++ {
		var acc int32
		wrow := p.st.w[oi*v : (oi+1)*v]
		for h, xv := range in {
			acc += int32(wrow[h]) * int32(xv)
		}
		var bias float64
		if len(p.st.b) > 0 {
			bias = float64(p.st.b[oi])
		}
		x.floatBuf[oi] = float32(float64(acc)*deq + bias)
	}
}
