package dataflow

import (
	"fmt"
	"math"

	"condor/internal/condorir"
	"condor/internal/fifo"
	"condor/internal/nn"
	"condor/internal/obs"
)

// PEStats aggregates one PE's activity over a batch run.
type PEStats struct {
	ID             string
	Images         int64
	Cycles         int64 // modeled busy cycles over the whole batch
	MACs           int64
	WindowsRead    int64
	ElemsIn        int64
	ElemsOut       int64
	SpilledPartial int64 // words of partial sums exchanged with the datamover

	// MaxRequantScale is the largest per-tensor requantization scale this PE
	// applied at its output boundary over the batch (int8 datapath only;
	// zero on the float paths). The bounded-error equivalence harness uses
	// it to derive the admissible deviation from the float oracle.
	MaxRequantScale float64

	// MaxWinogradMag is the largest pre-activation output magnitude any
	// Winograd-mode layer of this PE produced over the batch; zero when no
	// layer ran in winograd_f23 mode. RunStats.WinogradErrorBound scales it
	// into the admissible transform-domain rounding deviation from the
	// direct-convolution oracle.
	MaxWinogradMag float64
}

// CyclesPerImage returns the average modeled busy cycles per image.
func (s *PEStats) CyclesPerImage() int64 {
	if s.Images == 0 {
		return 0
	}
	return s.Cycles / s.Images
}

// LayerCycles models the PE-busy cycles one image spends in layer l at port
// parallelism par. The iteration space is (input-channel group, output
// position, output-channel group) with II=1 on the HLS pipeline; a channel
// group is additionally bounded below by the stream traversal of the padded
// input map (1 element/cycle through the filter chain), which dominates for
// sub-sampling layers. This is the single cycle model shared by the
// functional simulator and the analytic performance layer.
func LayerCycles(l *LayerHW, par condorir.Parallelism) int64 {
	return LayerCyclesAt(l, par, 1)
}

// LayerCyclesAt is LayerCycles with an explicit lane count: on the packed
// int8 datapath each FIFO word carries `lanes` activation elements, so the
// stream-traversal terms (padded-map traversal for features extraction, the
// input-volume walk for FC) shrink by the lane factor — ceil'd, since a
// padded tail word still takes its cycle. Compute terms are unchanged: the
// MAC count per output cell does not depend on how elements were packed in
// flight. lanes=1 reproduces the float model exactly.
func LayerCyclesAt(l *LayerHW, par condorir.Parallelism, lanes int) int64 {
	if lanes < 1 {
		lanes = 1
	}
	par = par.Normalize()
	switch {
	case l.Kind == nn.Conv:
		groups := ceilDiv(l.InShape.Channels, par.In)
		outHW := int64(l.OutShape.Height) * int64(l.OutShape.Width)
		outGroups := int64(ceilDiv(l.OutShape.Channels, par.Out))
		stream := ceilDiv64(int64(l.PaddedHeight())*int64(l.PaddedWidth()), int64(lanes))
		switch l.Algo() {
		case AlgoGEMM:
			// The padded map is unrolled once into the on-chip im2col
			// panel (one stream traversal total, not one per input-channel
			// group), and the dual-ported panel BRAM feeds the MAC array
			// two output positions per cycle.
			compute := ceilDiv64(outHW, 2) * outGroups
			return maxI64(int64(groups)*compute, stream) + hlsPipelineDepth
		case AlgoWinograd:
			// One 2×2 output tile per cycle per output-channel group: the
			// 16-lane element-wise multiply stage retires a whole
			// transformed tile each cycle. Input tiles are gathered from
			// the same padded-map traversal as the direct path; the extra
			// fill term covers the input/inverse transform pipelines.
			tiles := int64((l.OutShape.Height/2)*(l.OutShape.Width/2)) * outGroups
			return int64(groups)*maxI64(tiles, stream) + chainFill(l) + winogradXformFill
		default:
			compute := outHW * outGroups
			return int64(groups)*maxI64(compute, stream) + chainFill(l)
		}
	case l.Kind == nn.MaxPool || l.Kind == nn.AvgPool:
		groups := ceilDiv(l.InShape.Channels, par.In)
		outHW := int64(l.OutShape.Height) * int64(l.OutShape.Width)
		stream := ceilDiv64(int64(l.PaddedHeight())*int64(l.PaddedWidth()), int64(lanes))
		return int64(groups)*maxI64(outHW, stream) + chainFill(l)
	case l.Kind == nn.FullyConnected:
		// Single-input/single-output 1x1-convolution PE: every input element
		// is multiplied against each output neuron group. Packed lanes feed
		// the MAC array `lanes` elements per cycle.
		v := ceilDiv64(int64(l.InShape.Volume()), int64(lanes))
		return v*int64(ceilDiv(l.OutShape.Channels, par.Out)) + fcPipelineFill
	default:
		return 0
	}
}

// chainFill is the fill latency of the filter pipeline: the spatial distance
// between the first and last window access plus the HLS pipeline depth.
func chainFill(l *LayerHW) int64 {
	return int64((l.Kernel-1)*l.PaddedWidth()+l.Kernel) + hlsPipelineDepth
}

const (
	hlsPipelineDepth = 64 // floating-point MAC pipeline depth at target clocks
	fcPipelineFill   = 64
	// winogradXformFill is the extra fill latency of the Winograd input
	// transform (BᵀdB) and inverse transform (AᵀMA) pipeline stages.
	winogradXformFill = 16
)

// PECyclesPerImage models the total busy cycles per image of a PE: the sum
// over its (possibly fused) layers plus the DDR round trips of fused-layer
// intermediates (one write + one read at one word per cycle).
func PECyclesPerImage(pe *PE) int64 {
	return PECyclesPerImageAt(pe, 1)
}

// PECyclesPerImageAt is PECyclesPerImage with an explicit lane count: the
// fused-layer handoff also moves packed words, so its DDR round trip shrinks
// by the lane factor alongside the per-layer stream terms.
func PECyclesPerImageAt(pe *PE, lanes int) int64 {
	if lanes < 1 {
		lanes = 1
	}
	var total int64
	for i, l := range pe.Layers {
		total += LayerCyclesAt(&l, pe.Par, lanes)
		if i+1 < len(pe.Layers) {
			total += 2 * ceilDiv64(int64(l.OutShape.Volume()), int64(lanes))
		}
	}
	return total
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		b = 1
	}
	return (a + b - 1) / b
}

func ceilDiv64(a, b int64) int64 {
	if b <= 0 {
		b = 1
	}
	return (a + b - 1) / b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// peExec executes one PE over a stream of images with the burst datapath:
// the input image is pulled from the PE's input FIFO in bursts, each layer
// fills a preallocated output buffer, and the final layer's output leaves
// in a single PushSlice. Windows are gathered straight from the zero-padded
// channel plane — the filter chain itself is simulated FIFO by FIFO only by
// the word-at-a-time oracle in wordpath.go — and every output cell keeps the
// oracle's accumulation chain (input channels ci-major, ascending tap order
// within a channel), so arithmetic results, FIFO traffic totals, MAC counts
// and modeled cycles are identical to it.
//
// The PE's modeled port parallelism (Par.In input maps read concurrently,
// Par.Out output maps computed in parallel) executes for real on the host:
// runConv/runFC shard the output-channel range into Par.Out bands and
// runPool shards the channel range into Par.In bands, on a worker pool
// bounded by GOMAXPROCS. Banding never changes any per-cell accumulation
// chain, so results stay bit-identical to the oracle at every parallelism
// setting.
//
// A warm executor allocates nothing and spawns nothing per image: scratch is
// sized once in prepare, and the band bodies are methods bound once (bandFns)
// that read the pass in flight from the executor instead of capturing it.
type peExec struct {
	peStream

	// layers caches per-layer state resolved once per session in prepare:
	// weight/bias slices (hoisted out of the per-image datamover lookup)
	// and the fused-handoff buffer key (hoisted out of per-image Sprintf).
	layers []peLayerState

	// wg is the accelerator's pre-transformed Winograd weight cache
	// (layer name → f·c·16 transformed words), shared read-only across CU
	// clones like the int8 code store. prepare transforms in place for a
	// layer it does not hold.
	wg map[string][]float32

	// pass is the layer pass in flight, written by the run* methods before
	// each band dispatch and read by the band bodies.
	pass struct {
		l        *LayerHW
		st       *peLayerState
		cur, out []float32 // the layer's input and output volumes
		ci       int       // input channel of the conv pass
		plane    []float32 // its zero-padded plane
	}

	// Scratch sized once in prepare for the PE's most demanding layer.
	inBuf   []float32
	outBuf  []float32
	partial []float32
	planes  [][]float32 // zero-padded channel planes, one per Par.In band
	panel   []float32   // im2col panel, K² tap-major rows of OH·OW positions
	vBuf    []float32   // Winograd transformed input tiles, 16 words per tile
	mBuf    []float32   // Winograd transform-domain accumulators, f·tiles·16
	mags    []float64   // Winograd per-band output magnitudes
}

// peLayerState is the execution state of one fused layer, resolved once per
// session instead of once per image.
type peLayerState struct {
	w, b        []float32
	wg          []float32 // Winograd-transformed weights (winograd_f23 layers only)
	streamWords int64     // weight+bias words re-read from DDR per image (0 when on-chip)
	fusedKey    string    // datamover buffer key for the fused-layer handoff
}

// prepare resolves the per-layer cached state, sizes every scratch buffer
// for the PE's most demanding layer and starts the worker pool.
func (x *peExec) prepare() error {
	x.layers = make([]peLayerState, len(x.pe.Layers))
	var outWords, partialWords, planeWords, panelWords, vWords, mWords int
	for li := range x.pe.Layers {
		l := &x.pe.Layers[li]
		st := &x.layers[li]
		if li < len(x.pe.Layers)-1 {
			st.fusedKey = x.pe.ID + "/fused/" + l.Name
		}
		outWords = max(outWords, l.OutShape.Volume())
		if l.Kind.IsFeatureExtraction() {
			if err := checkWindowGrid(l); err != nil {
				return err
			}
			if l.Pad > 0 {
				planeWords = max(planeWords, l.PaddedHeight()*l.PaddedWidth())
			}
		}
		if l.Kind != nn.Conv && l.Kind != nn.FullyConnected {
			continue
		}
		w, b, err := x.dm.WeightsRef(l.Name)
		if err != nil {
			return fmt.Errorf("layer %q: %w", l.Name, err)
		}
		if len(w) != l.WeightWords() {
			return fmt.Errorf("layer %q: weight stream has %d words, want %d", l.Name, len(w), l.WeightWords())
		}
		st.w, st.b = w, b
		if !x.pe.WeightsOnChip {
			st.streamWords = int64(len(w) + len(b))
		}
		partialWords = max(partialWords, l.OutShape.Volume())
		if l.Kind != nn.Conv {
			continue
		}
		outHW := l.OutShape.Height * l.OutShape.Width
		switch l.Algo() {
		case AlgoGEMM:
			panelWords = max(panelWords, l.Kernel*l.Kernel*outHW)
		case AlgoWinograd:
			if !WinogradOK(l.Kernel, l.Stride, l.OutShape) {
				return fmt.Errorf("layer %q: winograd_f23 requires a 3×3/stride-1 kernel and 2×2-tile-aligned output, got k=%d s=%d out %dx%d",
					l.Name, l.Kernel, l.Stride, l.OutShape.Height, l.OutShape.Width)
			}
			st.wg = x.wg[l.Name]
			if st.wg == nil {
				// Spec mutated after Instantiate (tests do this): derive
				// the transformed weights locally instead.
				st.wg = winogradTransformWeights(w, l.InShape.Channels, l.OutShape.Channels)
			}
			vWords = max(vWords, outHW/4*16)
			mWords = max(mWords, l.OutShape.Channels*outHW/4*16)
		}
	}
	x.inBuf = make([]float32, x.pe.Layers[0].InShape.Volume())
	x.outBuf = make([]float32, outWords)
	x.partial = make([]float32, partialWords)
	x.startPool(bandFns{conv: x.convBand, gemm: x.gemmBand, wgMul: x.winogradMulBand, wgInv: x.winogradInverseBand,
		tail: x.tailBand, pool: x.poolBand, fc: x.fcBand})
	x.planes = make([][]float32, x.inBands)
	for i := range x.planes {
		x.planes[i] = make([]float32, planeWords)
	}
	x.panel = make([]float32, panelWords)
	x.vBuf = make([]float32, vWords)
	x.mBuf = make([]float32, mWords)
	x.mags = make([]float64, x.outBands)
	return nil
}

// checkWindowGrid rejects a features-extraction layer whose window grid does
// not fit its padded input: the gather indexes the plane directly — the
// oracle reports the same defect as a short chain.
func checkWindowGrid(l *LayerHW) error {
	if (l.OutShape.Height-1)*l.Stride+l.Kernel > l.PaddedHeight() || (l.OutShape.Width-1)*l.Stride+l.Kernel > l.PaddedWidth() {
		return fmt.Errorf("layer %q: %dx%d windows of size %d at stride %d do not fit the %dx%d padded input",
			l.Name, l.OutShape.Height, l.OutShape.Width, l.Kernel, l.Stride, l.PaddedHeight(), l.PaddedWidth())
	}
	return nil
}

// peStream is the part of a PE executor that does not depend on the element
// type: the PE and its stream ends, the session hooks, the worker pool and
// the resident frame loop.
type peStream struct {
	pe    *PE
	dm    *Datamover
	in    *fifo.FIFO
	out   *fifo.FIFO
	stats *PEStats
	track *obs.Track // nil when tracing is off

	// Session hooks: onImage advances the RunBatch barrier after each
	// retired image; onErr latches a failure before the input drain starts,
	// so the feeder learns to close the head FIFO and the drain terminates.
	onImage func()
	onErr   func(error)

	// pool executes port-parallel bands; nil when the PE's parallelism or
	// the processor budget is 1 (the sequential schedule). fns are the
	// executor's band bodies and inBands/outBands the PE's normalized port
	// counts, all set once in prepare.
	pool              *workerPool
	fns               bandFns
	inBands, outBands int
}

// startPool records the PE's port counts and starts its worker pool.
func (x *peStream) startPool(fns bandFns) {
	width := x.pe.Par.Normalize()
	x.inBands, x.outBands = width.In, width.Out
	x.fns = fns
	x.pool = newPEWorkerPool(max(width.In, width.Out))
}

// bandFns are an executor's band bodies as method values, bound once per
// session so that dispatching a band allocates no closure.
type bandFns struct {
	conv, gemm, wgMul, wgInv, tail, pool, fc bandFunc
}

// runStream is the resident session loop: frames are consumed until the
// input stream ends, each validated against the expected epoch sequence and
// forwarded under the same tag. prepare runs once per session, not once per
// image, so batches amortize it. On error the executor latches the failure
// first (so the session feeder stops and closes the head FIFO) and then
// drains its input; the drain completes before runStream returns, so no
// goroutine outlives the session.
func (x *peStream) runStream(prepare, runImage func() error) error {
	defer x.out.Close()
	fail := func(err error) error {
		err = fmt.Errorf("dataflow: %s: %w", x.pe.ID, err)
		x.onErr(err)
		x.in.Drain()
		return err
	}
	if err := prepare(); err != nil {
		return fail(err)
	}
	defer x.pool.close()
	var epoch uint16
	for {
		e, ok, err := x.in.PopFrameHeader()
		if !ok {
			return nil // end of session
		}
		if err != nil {
			return fail(err)
		}
		if e != epoch {
			return fail(fmt.Errorf("frame epoch %d arrived, expected %d", e, epoch))
		}
		x.out.PushFrameHeader(e)
		if err := runImage(); err != nil {
			return fail(fmt.Errorf("epoch %d: %w", e, err))
		}
		x.stats.Images++
		epoch++
		x.onImage()
	}
}

// runImage pushes one image through the PE's fused layer sequence.
func (x *peExec) runImage() error {
	// The whole input image is burst out of the input FIFO up front; the
	// bounded FIFO still throttles the producer, PopInto just retires each
	// arriving chunk with one synchronisation instead of one per word.
	n := x.in.PopInto(x.inBuf)
	x.stats.ElemsIn += int64(n)
	if n < len(x.inBuf) {
		return fmt.Errorf("input stream ended after %d of %d elements", n, len(x.inBuf))
	}
	cur := x.inBuf
	for li := range x.pe.Layers {
		l := &x.pe.Layers[li]
		st := &x.layers[li]
		if len(cur) != l.InShape.Volume() {
			return fmt.Errorf("fused intermediate has %d words, layer expects %d", len(cur), l.InShape.Volume())
		}
		out := x.outBuf[:l.OutShape.Volume()]

		// The span brackets the PE's cumulative cycle counter: its cycle
		// width is this layer's LayerCycles plus, for fused layers, the DDR
		// round trip of the intermediate — so per-track span totals sum to
		// exactly PEStats.Cycles.
		sid := 0
		if x.track != nil {
			sid = x.track.Begin(l.Name, x.stats.Cycles)
		}

		x.pass.l, x.pass.st, x.pass.cur, x.pass.out = l, st, cur, out
		switch l.Kind {
		case nn.Conv:
			switch l.Algo() {
			case AlgoGEMM:
				x.runConvGEMM()
			case AlgoWinograd:
				x.runConvWinograd()
			default:
				x.runConv()
			}
		case nn.MaxPool, nn.AvgPool:
			x.runPool()
		case nn.FullyConnected:
			x.runFC()
		default:
			return fmt.Errorf("layer %q: unsupported PE kind %v", l.Name, l.Kind)
		}
		x.stats.Cycles += LayerCycles(l, x.pe.Par)

		if li == len(x.pe.Layers)-1 {
			x.out.PushSlice(out)
			x.stats.ElemsOut += int64(len(out))
		} else {
			// Fused-layer handoff goes through the datamover (the paper's
			// partial-result exchange): write the intermediate to DDR and
			// stream it back for the next layer's pass.
			x.dm.WriteBuffer(st.fusedKey, out)
			var err error
			cur, err = x.dm.ReadBuffer(st.fusedKey)
			if err != nil {
				return err
			}
			x.stats.Cycles += 2 * int64(len(out))
		}
		if x.track != nil {
			x.track.AddWords(sid, int64(len(out)))
			x.track.End(sid, x.stats.Cycles)
		}
	}
	return nil
}

// padPlane returns the zero-padded plane of one channel map (float words or
// int8 codes), built in the scratch plane; with no padding the map itself is
// the plane.
func padPlane[T float32 | int8](scratch []T, l *LayerHW, chmap []T) []T {
	if l.Pad == 0 {
		return chmap
	}
	pw, w := l.PaddedWidth(), l.InShape.Width
	plane := scratch[:l.PaddedHeight()*pw]
	clear(plane)
	for y := 0; y < l.InShape.Height; y++ {
		copy(plane[(y+l.Pad)*pw+l.Pad:], chmap[y*w:(y+1)*w])
	}
	return plane
}

// convPasses is the channel-pass loop every convolution algorithm shares:
// per input channel, pad the plane, let the algorithm prepare its pass
// (unroll the panel, transform the tiles), fan its MAC band body across the
// Par.Out bands, and account the layer. windows is the number of windows one
// pass reads and macs the multiplies each costs per output channel.
func (x *peExec) convPasses(windows, macs int, stage func(), band bandFunc) {
	p := &x.pass
	l := p.l
	inHW := l.InShape.Height * l.InShape.Width
	for ci := 0; ci < l.InShape.Channels; ci++ {
		p.ci = ci
		p.plane = padPlane(x.planes[0], l, p.cur[ci*inHW:(ci+1)*inHW])
		if stage != nil {
			stage()
		}
		x.pool.bands(l.OutShape.Channels, x.outBands, band)
	}
	x.accountConv(l, 4*p.st.streamWords, windows, macs)
}

// accountConv books a finished convolution layer: the weight stream's DDR
// re-read and, per input-channel pass, windows read at macs multiplies per
// output channel each plus a partial-sum round trip when the accumulators
// spill. The counters are pure adds, so the passes fold into one closed form.
func (x *peStream) accountConv(l *LayerHW, streamBytes int64, windows, macs int) {
	c, f := int64(l.InShape.Channels), int64(l.OutShape.Channels)
	x.dm.AccountReadBytes(streamBytes)
	x.stats.WindowsRead += c * int64(windows)
	x.stats.MACs += c * f * int64(macs) * int64(windows)
	if !x.pe.PartialsOnChip {
		spill := c * f * int64(l.OutShape.Height*l.OutShape.Width)
		x.dm.AccountPartialSpill(spill)
		x.stats.SpilledPartial += spill
	}
}

// runConv implements the convolutional PE schedule: input feature maps are
// processed sequentially (one pass each); a pass adds the channel's K²-tap
// dot product at every window position into the partial sums of all output
// channels; after the last input map the bias is added, the folded
// activation applied, and the output maps are written channel-major.
//
// With Par.Out > 1 the output-channel range of each pass is sharded into
// bands on the worker pool over the shared read-only plane. Every (fi, pos)
// cell still accumulates over the input channels in ci-major order with the
// same fixed-order K²-tap dot product — banding and the register tile
// partition independent cells, never an accumulation chain — so results are
// bit-identical to the sequential schedule and to the RunWords oracle.
func (x *peExec) runConv() {
	l := x.pass.l
	outHW := l.OutShape.Height * l.OutShape.Width
	clear(x.partial[:l.OutShape.Channels*outHW])
	x.convPasses(outHW, l.Kernel*l.Kernel, nil, x.fns.conv)
	x.pool.bands(l.OutShape.Channels, x.outBands, x.fns.tail)
}

// convPosTile is the output-position register-tile width of the direct
// convolution: one weight load feeds this many positions of each of the two
// output channels a tile covers.
const convPosTile = 4

// convBand adds input channel pass.ci's contribution to the partial sums of
// output channels [lo,hi), two channels × convPosTile positions per tile.
func (x *peExec) convBand(_, lo, hi int) {
	p := &x.pass
	l := p.l
	c, k, stride, pw := l.InShape.Channels, l.Kernel, l.Stride, l.PaddedWidth()
	kk := k * k
	outH, outW := l.OutShape.Height, l.OutShape.Width
	outHW := outH * outW
	w := p.st.w
	for fi := lo; fi < hi; fi += 2 {
		w0 := w[(fi*c+p.ci)*kk:][:kk]
		acc0 := x.partial[fi*outHW:][:outHW]
		// An odd band ends on a lone channel: run it as both halves of the
		// tile (same values computed twice, stored once).
		w1, acc1 := w0, acc0
		if fi+1 < hi {
			w1 = w[((fi+1)*c+p.ci)*kk:][:kk]
			acc1 = x.partial[(fi+1)*outHW:][:outHW]
		}
		for oy := 0; oy < outH; oy++ {
			convRow(acc0[oy*outW:][:outW], acc1[oy*outW:][:outW], w0, w1, p.plane[oy*stride*pw:], pw, k, stride)
		}
	}
}

// convRow accumulates the K²-tap dot products of one output row's windows —
// plane starts at the top-left element of the first — into two output
// channels' partial sums, taps ascending per cell.
func convRow(acc0, acc1, w0, w1, plane []float32, pw, k, stride int) {
	ox := 0
	for ; ox+convPosTile <= len(acc0); ox += convPosTile {
		t0, t1 := acc0[ox:][:convPosTile], acc1[ox:][:convPosTile]
		a0, a1, a2, a3 := t0[0], t0[1], t0[2], t0[3]
		b0, b1, b2, b3 := t1[0], t1[1], t1[2], t1[3]
		for m := 0; m < k; m++ {
			row := plane[m*pw+ox*stride:]
			r0, r1, r2, r3 := row[:k], row[stride:][:k], row[2*stride:][:k], row[3*stride:][:k]
			wr0, wr1 := w0[m*k:][:k], w1[m*k:][:k]
			for n := 0; n < k; n++ {
				u, v := wr0[n], wr1[n]
				x0, x1, x2, x3 := r0[n], r1[n], r2[n], r3[n]
				a0 += u * x0
				a1 += u * x1
				a2 += u * x2
				a3 += u * x3
				b0 += v * x0
				b1 += v * x1
				b2 += v * x2
				b3 += v * x3
			}
		}
		t0[0], t0[1], t0[2], t0[3] = a0, a1, a2, a3
		t1[0], t1[1], t1[2], t1[3] = b0, b1, b2, b3
	}
	for ; ox < len(acc0); ox++ {
		a, b := acc0[ox], acc1[ox]
		for m := 0; m < k; m++ {
			row := plane[m*pw+ox*stride:][:k]
			wr0, wr1 := w0[m*k:][:k], w1[m*k:][:k]
			for n := 0; n < k; n++ {
				a += wr0[n] * row[n]
				b += wr1[n] * row[n]
			}
		}
		acc0[ox], acc1[ox] = a, b
	}
}

// tailBand applies the pointwise bias + folded activation stage of a conv
// layer to output channels [lo,hi). Pointwise per output cell, so banding
// cannot reorder any arithmetic.
func (x *peExec) tailBand(_, lo, hi int) {
	p := &x.pass
	outHW := p.l.OutShape.Height * p.l.OutShape.Width
	act, b := p.l.Activation, p.st.b
	for fi := lo; fi < hi; fi++ {
		var bias float32
		if len(b) > 0 {
			bias = b[fi]
		}
		part := x.partial[fi*outHW:][:outHW]
		out := p.out[fi*outHW:][:outHW]
		for pos, v := range part {
			out[pos] = applyActivation(act, v+bias)
		}
	}
}

// runPool implements the sub-sampling PE: one pass per channel, each window
// replaced by its maximum or average. Channels are independent maps, so with
// Par.In > 1 the channel range is sharded into bands that run concurrently,
// each padding into its own plane; within a channel the window order (and
// thus every float operation) is unchanged.
func (x *peExec) runPool() {
	l := x.pass.l
	x.pool.bands(l.InShape.Channels, x.inBands, x.fns.pool)
	x.stats.WindowsRead += int64(l.InShape.Channels) * int64(l.OutShape.Height*l.OutShape.Width)
}

// poolBand sub-samples channels [lo,hi). A window's elements are visited in
// ascending (m,n) order, as the oracle's window slots are.
func (x *peExec) poolBand(band, lo, hi int) {
	p := &x.pass
	l := p.l
	k, stride, pw := l.Kernel, l.Stride, l.PaddedWidth()
	outH, outW := l.OutShape.Height, l.OutShape.Width
	inHW := l.InShape.Height * l.InShape.Width
	isMax := l.Kind == nn.MaxPool
	inv := 1 / float32(k*k)
	for ci := lo; ci < hi; ci++ {
		plane := padPlane(x.planes[band], l, p.cur[ci*inHW:(ci+1)*inHW])
		out := p.out[ci*outH*outW:][:outH*outW]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				win := plane[oy*stride*pw+ox*stride:]
				var v float32
				if isMax {
					v = float32(math.Inf(-1))
				}
				for m := 0; m < k; m++ {
					for _, e := range win[m*pw:][:k] {
						if !isMax {
							v += e
						} else if e > v {
							v = e
						}
					}
				}
				if !isMax {
					v *= inv
				}
				out[oy*outW+ox] = applyActivation(l.Activation, v)
			}
		}
	}
}

// runFC implements the fully-connected PE as a single-input/single-output
// 1x1 convolution. The loop nest is output-major over the contiguous weight
// rows; each neuron's accumulation visits the inputs in the same order as
// the streaming oracle, so the result is bit-identical — and since banding
// and the register tile shard whole neurons, Par.Out-parallel execution
// preserves that exactly.
func (x *peExec) runFC() {
	p := &x.pass
	l := p.l
	o := l.OutShape.Channels
	if p.st.streamWords > 0 {
		x.dm.AccountWeightStream(p.st.streamWords)
	}
	partial := x.partial[:o]
	clear(partial)
	copy(partial, p.st.b)
	x.pool.bands(o, x.outBands, x.fns.fc)
	x.stats.MACs += int64(o) * int64(l.InShape.Volume())
	for i := range partial {
		partial[i] = applyActivation(l.Activation, partial[i])
	}
	if l.Normalize != NoActivation {
		normalizeInPlace(l.Normalize, partial)
	}
	copy(p.out, partial)
}

// fcNeuronTile is the neuron register-tile width of the FC loop: one input
// load feeds this many neurons' accumulators.
const fcNeuronTile = 4

// fcBand accumulates neurons [lo,hi) over the whole input volume.
func (x *peExec) fcBand(_, lo, hi int) {
	p := &x.pass
	in := p.cur
	v := len(in)
	w := p.st.w
	oi := lo
	for ; oi+fcNeuronTile <= hi; oi += fcNeuronTile {
		w0, w1, w2, w3 := w[oi*v:][:v], w[(oi+1)*v:][:v], w[(oi+2)*v:][:v], w[(oi+3)*v:][:v]
		acc := x.partial[oi:][:fcNeuronTile]
		a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
		for h, xv := range in {
			a0 += w0[h] * xv
			a1 += w1[h] * xv
			a2 += w2[h] * xv
			a3 += w3[h] * xv
		}
		acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
	}
	for ; oi < hi; oi++ {
		a := x.partial[oi]
		for h, wv := range w[oi*v:][:v] {
			a += wv * in[h]
		}
		x.partial[oi] = a
	}
}

// applyActivation applies the folded pointwise non-linearity.
func applyActivation(kind nn.Kind, v float32) float32 {
	switch kind {
	case nn.ReLU:
		if v < 0 {
			return 0
		}
		return v
	case nn.Sigmoid:
		return float32(1 / (1 + math.Exp(-float64(v))))
	case nn.TanH:
		return float32(math.Tanh(float64(v)))
	default:
		return v
	}
}

// normalizeInPlace applies the SoftMax/LogSoftMax normalisation stage using
// the same numerically-stable formulation as the reference engine.
func normalizeInPlace(kind nn.Kind, vals []float32) {
	max := math.Inf(-1)
	for _, v := range vals {
		if float64(v) > max {
			max = float64(v)
		}
	}
	var sum float64
	for _, v := range vals {
		sum += math.Exp(float64(v) - max)
	}
	logSum := math.Log(sum)
	for i, v := range vals {
		if kind == nn.LogSoftMax {
			vals[i] = float32(float64(v) - max - logSum)
		} else {
			vals[i] = float32(math.Exp(float64(v)-max) / sum)
		}
	}
}
