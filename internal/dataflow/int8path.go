package dataflow

import (
	"fmt"
	"math"
	"slices"

	"condor/internal/diag"
	"condor/internal/fifo"
	"condor/internal/nn"
	"condor/internal/quant"
)

// This file is the packed int8 datapath: the fabric variant selected by
// Spec.WordBits == 8, where every FIFO word carries fifo.Int8Lanes quantized
// activation lanes. Each stream edge frames one image as a single float32
// scale-header word followed by PackedWords(volume) payload words, whose bytes
// are the codes in order (fifo.Int8View): a PE pops the frame into a word
// buffer and its kernels read the codes in place, runs conv/FC MACs in
// widened integer accumulators, dequantizes once per layer to fold
// bias/activation/normalisation in float, and requantizes with a fresh
// symmetric per-tensor scale at the PE boundary, straight into the word
// buffer it pushes. Only the feeder quantizes float inputs and only the
// collector dequantizes back — in between, activations exist purely as
// packed lanes, which is what shrinks the stream traversal cycles and DDR
// bytes by the lane factor.
//
// Codes have one layout on every CPU: a conv layer's padded code planes are
// stacked one byte per code, as the float32 path stacks words, and FC codes
// are row-major. The MAC loops are the float32 path's too — convPass's band
// nests and the generic Go tiles (convTileGo, fcTileGo) — summing in int32,
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
// quantized with it, so the exact value a header word can transport is also
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
// int8 grid, once per Instantiate, and shared read-only by every compute unit
// and every run, so batches never pay the weight-calibration scan again.
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

// int8Payload is the code view of a frame buffer's first n payload lanes. A
// frame buffer is one image's frame on the packed datapath as the words that
// carry it, moved as one packed burst: the scale header word, then the
// payload words whose bytes are the codes.
func int8Payload(words []fifo.Word, n int) []int8 { return fifo.Int8View(words[1:], n) }

// pushInt8Frame sends the frame buffer whose payload holds n codes
// downstream with the given scale in its header word.
func pushInt8Frame(f *fifo.FIFO, words []fifo.Word, n int, scale float64) {
	words[0] = fifo.Word(scale)
	f.PushPacked(words[:1+fifo.PackedWords(n)], int64(n))
}

// popInt8Frame receives a frame of n codes into the frame buffer and returns
// its scale.
func popInt8Frame(f *fifo.FIFO, words []fifo.Word, n int) (float64, error) {
	need := 1 + fifo.PackedWords(n)
	if got := f.PopPackedInto(words[:need], int64(n)); got < need {
		return 0, fmt.Errorf("input stream ended after %d of the frame's %d words (scale header and packed payload)", got, need)
	}
	return float64(words[0]), nil
}

// peExecInt8 executes one PE over a stream of images on the packed datapath.
// Layer resolution, the frame loop, output banding on the worker pool and
// windows gathered from the zero-padded channel planes are peStream's, as for
// peExec; the arithmetic is int8×int8 in int32 accumulators with one
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
		cur, out []int8  // the layer's input and output codes, views of curFrame and nxtFrame
		inScale  float64 // scale of cur
		outScale float64 // scale of out, once the layer has run
	}
	conv convPass[int8, uint32, int32]

	// Scratch sized once in prepare for the PE's most demanding layer.
	curFrame []fifo.Word // frame buffers (int8Payload): the layer's input and output volumes
	nxtFrame []fifo.Word
	floatBuf []float32 // a layer's results before requantization
	chanMax  []uint32  // a direct or im2col_gemm conv layer's largest |result| per output channel, as float32 bits (convStore)
	deqBuf   []float32 // a winograd_f23 layer's dequantized input volume
	planes   [][]int8  // zero-padded channel planes, one per Par.In band
	stack    []int8    // a padded conv layer's stacked code planes, one byte per code
}

// peLayerInt8 is one fused layer's session-resolved state: what peStream
// resolved plus the layer's weight codes, a conv layer's tap table for the
// AVX2 tile and whether an FC layer runs on the AVX2 kernel.
type peLayerInt8 struct {
	*layerState
	q     int8LayerWeights
	tile8 bool    // the FC layer runs on fcDot4I8
	deq4  bool    // the conv layer's store runs on deqStore4: AVX2, and no activation or ReLU
	taps2 []int32 // a conv layer's tap table padded to whole pairs (pairTaps)
}

func (x *peExecInt8) prepare() error {
	sz, err := x.resolveLayers(bandFns{conv: x.conv.convBand, pool: x.poolBand, fc: x.fcBand})
	if err != nil {
		return err
	}
	x.conv.ops = x
	x.layers = make([]peLayerInt8, len(x.resolved))
	channels := 0
	for li := range x.layers {
		l, st := &x.pe.Layers[li], &x.layers[li]
		st.layerState = &x.resolved[li]
		if st.w == nil {
			continue
		}
		channels = max(channels, l.OutShape.Channels)
		if d := Int8AccumulatorRange(x.pe.ID, l); d != nil {
			return d
		}
		var ok bool
		if st.q, ok = x.qw[l.Name]; !ok {
			// Spec switched to WordBits==8 after Instantiate: derive the
			// codes here (the slow path the Instantiate-time cache avoids).
			st.q = quantizeLayerWeights(l, st.w)
		}
		st.tile8 = haveAVX2 && l.Kind == nn.FullyConnected
		st.deq4 = haveAVX2 && (l.Activation == NoActivation || l.Activation == nn.ReLU)
		st.taps2 = pairTaps(st.taps)
	}
	x.curFrame = make([]fifo.Word, 1+fifo.PackedWords(sz.vol+poolSlack))
	x.nxtFrame = make([]fifo.Word, 1+fifo.PackedWords(sz.vol+poolSlack))
	x.floatBuf = make([]float32, sz.vol)
	x.chanMax = make([]uint32, channels)
	x.deqBuf = make([]float32, sz.winogradIn)
	x.planes = bandPlanes[int8](x.inBands, sz.plane+poolSlack)
	x.stack = make([]int8, sz.paddedStack)
	return nil
}

func (x *peExecInt8) popFrame() (err error) {
	p, n := &x.pass, x.pe.Layers[0].InShape.Volume()
	p.inScale, err = popInt8Frame(x.in, x.curFrame, n)
	p.cur = int8Payload(x.curFrame, n)
	return err
}

func (x *peExecInt8) runLayer(li int) {
	p := &x.pass
	p.l, p.st = &x.pe.Layers[li], &x.layers[li]
	p.out = int8Payload(x.nxtFrame, p.l.OutShape.Volume())
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
	x.curFrame, x.nxtFrame = x.nxtFrame, x.curFrame
	p.cur, p.inScale = p.out, p.outScale
	return nil
}

func (x *peExecInt8) pushFrame() { pushInt8Frame(x.out, x.nxtFrame, len(x.pass.out), x.pass.outScale) }

// requantize closes a layer: the float results in fb get a fresh symmetric
// per-tensor scale and land in the output codes.
func (x *peExecInt8) requantize(fb []float32) float64 {
	outScale := frameScale(fb)
	quantizeCodes(x.pass.out, fb, outScale)
	return outScale
}

// quantizeCodes is quant.QuantizeInto — the reference, and the path off
// AVX2 — with its whole blocks of eight on the AVX2 requantizer (quantize8)
// where the CPU has one. The feeder, runConv and requantize use it.
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

// runConv is the quantized convolutional PE, direct and im2col_gemm alike:
// the padded code planes are staged once, stacked one byte per code (an
// unpadded input volume already is that stack), then one band dispatch of
// the shared nests (convPass) computes each output cell's whole chain,
// dequantizes it (acc · wScale · inScale + bias) and activates it in float;
// the layer output is requantized with a fresh per-tensor scale, from the
// per-channel magnitudes the stores kept instead of a scan of the output.
func (x *peExecInt8) runConv() float64 {
	p := &x.pass
	l, q := p.l, &p.st.q
	chanMax := x.chanMax[:l.OutShape.Channels]
	clear(chanMax)
	x.conv.set(l, stackPlanes(x.stack, l, p.cur), q.w, p.st.taps, q.tapPairs, p.st.taps2, len(p.st.taps2)/2)
	x.pool.bands(l.OutShape.Channels, x.outBands, x.fns.conv)
	outScale := float64(float32(quant.MaxAbsScale(float64(math.Float32frombits(slices.Max(chanMax))), quant.Int8))) // rounded as frameScale does
	quantizeCodes(p.out, x.floatBuf[:len(p.out)], outScale)
	return outScale
}

// tile8 and store4 are the int8 part of the shared conv band nests
// (convOps): the AVX2 tile reads the padded tap table and rows of the
// tap-pair table.
func (x *peExecInt8) tile8(win *int8, taps *int32, pairs int, w [4]*uint32, f [4]int, pos int) {
	var acc [4][convLanes]int32
	convTile8I8(win, taps, pairs, w[0], w[1], w[2], w[3], &acc)
	for j, fj := range f {
		if j == 0 || fj != f[j-1] {
			x.convStore(fj, pos, acc[j][:])
		}
	}
}

func (x *peExecInt8) store4(fi, pos, n int, acc [convPosTile]int32) { x.convStore(fi, pos, acc[:n]) }

// convStore dequantizes and activates a tile's position sums for one
// channel, into channel fi's float plane from pos on, and folds their
// magnitudes into the channel's maximum with tensorScale's comparison (a NaN
// is skipped). One band owns each channel, and a recomputed tile stores equal
// values again, so the maximum is the scan's. Whole blocks of four run on
// deqStore4 where the layer admits it (peLayerInt8.deq4), the rest on
// deqStoreGo.
func (x *peExecInt8) convStore(fi, pos int, acc []int32) {
	p := &x.pass
	l, bias := p.l, float64(biasAt(p.st.b, fi))
	deq := p.st.q.wScale * p.inScale
	fb := x.floatBuf[fi*l.OutShape.Height*l.OutShape.Width+pos:][:len(acc)]
	m, n := x.chanMax[fi], 0
	if p.st.deq4 {
		if n = len(acc) &^ 3; n > 0 {
			m = deqStore4(&acc[0], n/4, &fb[0], deq, bias, l.Activation == nn.ReLU, m)
		}
	}
	if n < len(acc) {
		m = deqStoreGo(fb[n:], acc[n:], deq, bias, l.Activation, m)
	}
	x.chanMax[fi] = m
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

// runPool is the quantized sub-sampling PE. Max pooling runs on the codes —
// integer max is exact and order-free, and max commutes with the monotone
// dequantization — so a max pool with no folded activation stays entirely on
// the int8 grid and the input scale passes through. Average pooling
// accumulates in int32, and it and a max pool with a folded activation
// dequantize, apply the float stage and requantize.
func (x *peExecInt8) runPool() float64 {
	p := &x.pass
	l := p.l
	// Channel maps are independent; bands shard whole channels, each padding
	// into its own plane.
	x.pool.bands(l.InShape.Channels, x.inBands, x.fns.pool)
	if l.Kind == nn.MaxPool && l.Activation == NoActivation {
		return p.inScale
	}
	return x.requantize(x.floatBuf[:len(p.out)])
}

// poolSlack is how many codes past every channel plane the executor can read
// — the frame buffers and scratch planes carry them — so that poolMax8Rows,
// which counts the stride-2 kernel's one load past a plane's last window,
// admits a plane's last row too.
const poolSlack = 1

// poolBand sub-samples channels [lo,hi): a max pool into the output codes
// (maxPoolPlane, on poolMax8I8), dequantized per channel where an activation
// follows; an average pool from its int32 window sums.
func (x *peExecInt8) poolBand(band, lo, hi int) {
	p := &x.pass
	l := p.l
	k, stride, pw := l.Kernel, l.Stride, l.PaddedWidth()
	outHW, outW := l.OutShape.Height*l.OutShape.Width, l.OutShape.Width
	inHW := l.InShape.Height * l.InShape.Width
	inScale := p.inScale
	inv := inScale / float64(k*k)
	for ci := lo; ci < hi; ci++ {
		plane := padPlane(x.planes[band], l, p.cur[ci*inHW:(ci+1)*inHW])
		out, fb := p.out[ci*outHW:][:outHW], x.floatBuf[ci*outHW:][:outHW]
		if l.Kind == nn.MaxPool {
			maxPoolPlane(poolMax8I8, plane, out, l, poolMax8Rows(l, poolReach(l, p.cur, plane, ci)+poolSlack))
			if l.Activation == NoActivation {
				continue
			}
			for i, v := range out {
				fb[i] = float32(float64(v) * inScale)
			}
		} else {
			for i := range fb {
				fb[i] = float32(float64(windowSum[int8, int32](plane[(i/outW*pw+i%outW)*stride:], k, pw)) * inv)
			}
		}
		activateInPlace(l.Activation, fb)
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

// fcBand accumulates, dequantizes and biases neurons [lo,hi), four per tile
// over the row-major codes; a band ending inside a quad repeats its last
// neuron. On the AVX2 kernel (tile8) fcDot4I8 takes each quad's whole
// 16-input blocks, sixteen codes per step, and its eight lane sums per neuron
// are added up here; the Go tile takes the inputs past the last block, or the
// whole row.
func (x *peExecInt8) fcBand(_, lo, hi int) {
	p := &x.pass
	in, w := p.cur, p.st.q.w
	v, body := len(in), 0
	if p.st.tile8 {
		body = v &^ 15
	}
	var acc [4][convLanes]int32
	for oi := lo; oi < hi; oi += 4 {
		f := quad(oi, hi)
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
			if j == 0 || fj != f[j-1] {
				x.fcStore(fj, s[j])
			}
		}
	}
}

// fcStore dequantizes and biases neuron oi's sum.
func (x *peExecInt8) fcStore(oi int, s int32) {
	p := &x.pass
	x.floatBuf[oi] = float32(float64(s)*(p.st.q.wScale*p.inScale) + float64(biasAt(p.st.b, oi)))
}
