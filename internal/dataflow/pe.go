package dataflow

import (
	"fmt"
	"math"

	"condor/internal/condorir"
	"condor/internal/diag"
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

// peBase is the part of a PE executor that does not depend on the element
// type: the PE, its plan, its trace track, what it measures and the Winograd
// convolution (whose transform domain is float32 on both datapaths).
//
// Windows are gathered straight from the zero-padded channel planes — the
// filter chain itself is simulated FIFO by FIFO only by the word-at-a-time
// oracle in wordpath.go. The PE's port parallelism (Par.In input maps read
// concurrently, Par.Out output maps computed in parallel) is modeled — it
// sets the schedule's cycles, resources and DDR traffic — while the host runs
// each layer inline on its worker's goroutine, every output cell's chain in
// the oracle's order, so results do not depend on the parallelism setting.
//
// A warm executor allocates nothing and spawns nothing per image: scratch is
// sized once in prepare.
type peBase struct {
	pe     *PE
	plan   *pePlan    // Instantiate's, shared with every compute unit
	track  *obs.Track // nil when tracing is off
	cycles int64      // the track's modeled cycle stamp

	// The PE's measured maxima over the images this executor ran (PEStats):
	// every other counter is the schedule's, booked by Session.Stats.
	maxRequant, maxWinograd float64

	wino winogradPass // algopath.go
}

// pePlan is one PE's share of the lowered weight set: a record per fused
// layer and the scratch of its most demanding one. lower builds it once per
// Instantiate; the executors only read it.
type pePlan struct {
	layers  []layerState
	scratch scratchWords
}

// layerState is what the executors read of one fused layer.
type layerState struct {
	sched       Schedule  // the layer's cycles and counters per image
	w, b        []float32 // float weight stream and bias (compute layers)
	taps        []int32   // window gather index (direct and im2col_gemm conv layers)
	wg          []float32 // Winograd-transformed weights (winograd_f23 layers)
	streamBytes int64     // weight+bias bytes re-read from DDR per image (0 when on-chip)

	// The int8 datapath's: the layer's weight codes, a conv layer's tap-pair
	// offsets in its pair planes (pairTapOffsets) for the AVX2 tile, whether
	// an FC layer runs on the AVX2 kernels (fcDot4I8 and fcLanes8I8) and
	// whether a Go conv tile's store runs on deqStore4 (AVX2, and no
	// activation or ReLU).
	q           int8LayerWeights
	taps2       []int32
	tile8, deq4 bool
}

// scratchWords are the scratch sizes of the PE's most demanding layer, which
// the executor allocates in its element type.
type scratchWords struct {
	vol         int // largest volume a layer reads or writes
	plane       int // largest zero-padded channel plane of a padded layer
	paddedStack int // largest stack of padded channel planes a tap-table convolution gathers from (an unpadded volume is its own stack)
	channels    int // most output channels of a compute layer (int8 datapath)
	pairStack   int // most pair-plane words a tap-table convolution's AVX2 int8 tile reads (stagePairPlanes)
	winogradIn  int // largest input volume of a winograd_f23 layer

	// The Winograd pass (winogradPass): the largest padded plane, input
	// tiles and transform-domain accumulators of a winograd_f23 layer.
	wgPlane, wgTiles, wgAcc int
}

// checkWinograd reports why a conv layer cannot run winograd_f23.
func checkWinograd(l *LayerHW) error {
	if WinogradOK(l.Kernel, l.Stride, l.OutShape) {
		return nil
	}
	return fmt.Errorf("layer %q: winograd_f23 requires a 3×3/stride-1 kernel and 2×2-tile-aligned output, got k=%d s=%d out %dx%d",
		l.Name, l.Kernel, l.Stride, l.OutShape.Height, l.OutShape.Width)
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

// tapOffsets lists, in weight order (input channel, tap row, tap column),
// where each tap of a window sits in a conv layer's stacked padded planes
// relative to the window's top-left word in channel 0's: the gather index of
// both element types' convolution tiles.
func tapOffsets(l *LayerHW) []int32 {
	k := l.Kernel
	taps := make([]int32, l.InShape.Channels*k*k)
	for t := range taps {
		ci, m, n := t/(k*k), t/k%k, t%k
		taps[t] = int32((ci*l.PaddedHeight()+m)*l.PaddedWidth() + n)
	}
	return taps
}

// lower validates PE pe's fused layers against what the executors assume and
// lowers them at word width bits with their weights from ws: each layer's
// schedule, weight stream and derived tables, and the scratch of the most
// demanding layer. A weight-set failure is a diag.Diagnostic; any other names
// the PE.
func (p *pePlan) lower(pe *PE, bits int, ws *condorir.WeightSet) error {
	layers := pe.Layers
	if len(layers) == 0 {
		return fmt.Errorf("%s: no layers", pe.ID)
	}
	p.layers = make([]layerState, len(layers))
	sz := &p.scratch
	sz.vol = layers[0].InShape.Volume()
	for li := range layers {
		l, st := &layers[li], &p.layers[li]
		st.sched = pe.Schedule(li, bits)
		if err := checkLayer(l, layers[li+1:]); err != nil {
			return fmt.Errorf("%s: %w", pe.ID, err)
		}
		sz.vol = max(sz.vol, l.OutShape.Volume())
		plane := l.PaddedHeight() * l.PaddedWidth()
		if l.Kind.IsFeatureExtraction() && l.Pad > 0 {
			sz.plane = max(sz.plane, plane)
		}
		if l.Kind != nn.Conv && l.Kind != nn.FullyConnected {
			continue
		}
		w, b, d := layerWeights(pe.ID, l, ws)
		if d != nil {
			return d
		}
		st.w, st.b = w, b
		if !pe.WeightsOnChip {
			// The datapath re-reads its own elements: a float32 word each, or
			// one byte per code where a word packs lanes of them.
			st.streamBytes = int64(4/lanesAt(bits)) * int64(len(w)+len(b))
		}
		if bits == 8 {
			if d := Int8AccumulatorRange(pe.ID, l); d != nil {
				return d
			}
			st.q = quantizeLayerWeights(l, w)
			st.tile8 = haveAVX2 && l.Kind == nn.FullyConnected
			st.deq4 = haveAVX2 && (l.Activation == NoActivation || l.Activation == nn.ReLU)
			sz.channels = max(sz.channels, l.OutShape.Channels)
		}
		if l.Kind != nn.Conv {
			continue
		}
		if st.sched.XformWords == 0 { // not in the Winograd transform domain
			st.taps = tapOffsets(l)
			if bits == 8 && haveAVX2 {
				st.taps2 = pairTapOffsets(l)
				sz.pairStack = max(sz.pairStack, (l.InShape.Channels+1)/2*plane)
			}
			if l.Pad > 0 {
				sz.paddedStack = max(sz.paddedStack, l.InShape.Channels*plane)
			}
			continue
		}
		// The on-chip weight transform runs once, at configuration load.
		if err := checkWinograd(l); err != nil {
			return fmt.Errorf("%s: %w", pe.ID, err)
		}
		st.wg = winogradTransformWeights(w, l.InShape.Channels, l.OutShape.Channels)
		tiles := l.OutShape.Height / 2 * (l.OutShape.Width / 2)
		sz.winogradIn = max(sz.winogradIn, l.InShape.Volume())
		sz.wgPlane = max(sz.wgPlane, plane)
		sz.wgTiles = max(sz.wgTiles, tiles*16)
		sz.wgAcc = max(sz.wgAcc, l.OutShape.Channels*tiles*16)
	}
	return nil
}

// checkLayer rejects a fused layer the executors cannot run: a kind no PE
// has, a window grid that does not fit the padded input, or an output the
// next fused layer (the first of rest, if any) does not take as its input.
func checkLayer(l *LayerHW, rest []LayerHW) error {
	if len(rest) > 0 && rest[0].InShape.Volume() != l.OutShape.Volume() {
		return fmt.Errorf("fused intermediate has %d words, layer %q expects %d", l.OutShape.Volume(), rest[0].Name, rest[0].InShape.Volume())
	}
	switch {
	case l.Kind.IsFeatureExtraction():
		return checkWindowGrid(l)
	case l.Kind != nn.FullyConnected:
		return fmt.Errorf("layer %q: unsupported PE kind %v", l.Name, l.Kind)
	}
	return nil
}

// layerWeights looks compute layer l's weights and bias up in ws and checks
// their word counts against the layer.
func layerWeights(peID string, l *LayerHW, ws *condorir.WeightSet) (w, b []float32, d *diag.Diagnostic) {
	we, ok := ws.Get(l.Name, condorir.EntryWeights)
	if !ok {
		return nil, nil, diag.Errorf(diag.RuleWeightMissing, peID, l.Name, "weights for layer %q not in weight set", l.Name)
	}
	if be, ok := ws.Get(l.Name, condorir.EntryBias); ok {
		if b = be.Data; len(b) != l.OutShape.Channels {
			return nil, nil, diag.Errorf(diag.RuleBiasWords, peID, l.Name,
				"layer %q bias has %d words, accelerator needs %d", l.Name, len(b), l.OutShape.Channels)
		}
	}
	if want := l.WeightWords(); len(we.Data) != want {
		return nil, nil, diag.Errorf(diag.RuleWeightWords, peID, l.Name,
			"layer %q weight set has %d words, accelerator needs %d", l.Name, len(we.Data), want)
	}
	return we.Data, b, nil
}

// peExec executes one PE for a worker, on float32 words or int8 codes (E),
// over the images of a chunk (run): layer by layer, each layer over every
// image of the chunk, from the worker's volumes on one side into the other,
// so a fused layer's output is the next layer's input where it lies (the
// datamover's DDR round trip is modeled, not copied). The conv staging and
// the pool and FC skeletons are written once here; the per-type value el
// (f32Ops, i8Ops), bound when the worker is built, supplies what the element
// types do differently — staging an image and storing a result, the stores,
// the layer close and the pool's scale — and each type's AVX2 tiles and FC
// kernels. el is called once per image or layer, never per tile: the tiles
// reach their stores through convOps. Every output cell keeps the RunWords
// oracle's accumulation chain (float32) or an exact int32 sum (int8), so
// results, MAC counts and modeled cycles do not depend on how the host
// groups the images or schedules the cells. The direct and im2col_gemm
// schedules share one kernel: the algorithm drives the cycle, resource and
// verification models only.
type peExec[E float32 | int8] struct {
	peBase
	el elemOps[E]

	// poolPlane is the element type's AVX2 max-pool kernel (maxPoolPlane).
	poolPlane func(plane *E, k, pw, stride, outW, rows int, out *E)

	// pass is the layer pass in flight, written by run and read by the layer
	// bodies and el.
	pass struct {
		l        *LayerHW
		st       *layerState
		cur, out []E     // the image's input and output volumes, views of the worker's
		inScale  float64 // scale of cur (int8 codes; zero for float32 words)
		outScale float64 // scale of out, once the layer has run
	}

	// Scratch sized once in prepare for the PE's most demanding layer.
	plane []E // a zero-padded channel plane
	stack []E // a padded conv layer's stacked planes
}

// elemOps is peExec's per-type value: what float32 words (f32Ops) and int8
// codes (i8Ops) do differently.
type elemOps[E float32 | int8] interface {
	// prepare allocates the type's scratch.
	prepare(sz *scratchWords)
	// load stages an image's float32 words in dst and returns their scale;
	// store writes the elements of src, at scale, back as float32 words.
	load(dst []E, img []float32) (scale float64)
	store(dst []float32, src []E, scale float64)
	// floats is where the layer in flight leaves its first n float results:
	// the output volume itself, or the int8 float stage. floatsIn is the
	// layer's input as float32 words.
	floats(n int) []float32
	floatsIn() []float32
	// conv runs a direct or im2col_gemm conv layer over its stacked input
	// planes, and fc an FC layer's biased sums into fb.
	conv(stack []E) (outScale float64)
	fc(fb []float32)
	// fcChunk runs the FC layer in flight over the c images of a chunk, whose
	// input and output volumes lie stride elements apart in in and out, in one
	// pass over its weights, and reports whether it did. It reads the images'
	// input scales from inScales and writes their output scales to outScales.
	fcChunk(in, out []E, inScales, outScales []float64, stride, c int) bool
	// maxFloats puts a max pool's channel into the float stage; avgPool
	// averages a padded plane's windows into it.
	maxFloats(fb []float32, out []E)
	avgPool(fb []float32, plane []E)
	// closeLayer turns a layer's float results into its output elements and
	// returns their scale.
	closeLayer(fb []float32) (outScale float64)
}

// poolSlack is how many elements past every channel plane the executor can
// read — the worker's volumes and the scratch plane carry them. A max-pool
// kernel step loads poolStep raw elements per tap from one of its windows'
// elements on, so its loads end fewer than poolStep (at most 32) elements
// past the last element a window of its row uses, and with this slack
// poolMax8Rows admits every row of every plane.
const poolSlack = 31

// prepare allocates the executor's scratch for its plan, once per worker.
func (x *peExec[E]) prepare() {
	sz := &x.plan.scratch
	x.plane = make([]E, sz.plane+poolSlack)
	x.stack = make([]E, sz.paddedStack)
	x.wino.plane = make([]float32, sz.wgPlane)
	x.wino.v = make([]float32, sz.wgTiles)
	x.wino.m = make([]float32, sz.wgAcc)
	x.el.prepare(sz)
}

// run runs the PE's fused layers over the c images of a chunk, the first
// of which is image first of the batch: their input volumes lie in
// w.vols[side] with their scales in w.scales[side], and run returns the side
// their outputs lie on. An FC layer takes the whole chunk at once where the
// element type can (fcChunk); every other layer runs image by image. With
// tracing on, each layer is one span on the PE's track whose cycles are the
// chunk's share of the schedule, so per-track span totals sum to exactly
// PEStats.Cycles.
func (x *peExec[E]) run(w *worker[E], side, first, c int) int {
	p := &x.pass
	for li := range x.pe.Layers {
		p.l, p.st = &x.pe.Layers[li], &x.plan.layers[li]
		sid := 0
		if x.track != nil {
			sid = x.track.Begin(p.l.Name, x.cycles)
		}
		in, out := w.vols[side], w.vols[1-side]
		w.img = first
		if p.l.Kind != nn.FullyConnected || !x.el.fcChunk(in, out, w.scales[side][:c], w.scales[1-side][:c], w.stride, c) {
			n, m := p.l.InShape.Volume(), p.l.OutShape.Volume()
			for i := 0; i < c; i++ {
				w.img = first + i
				p.cur, p.inScale = in[i*w.stride:][:n], w.scales[side][i]
				p.out = out[i*w.stride:][:m]
				x.runLayer()
				w.scales[1-side][i] = p.outScale
			}
		}
		side = 1 - side
		if x.track != nil {
			s := &p.st.sched
			x.cycles += int64(c) * (s.Cycles() + s.HandOff)
			x.track.AddWords(sid, int64(c)*s.OutWords)
			x.track.End(sid, x.cycles)
		}
	}
	return side
}

// runLayer runs the layer in flight from the image's input volume into its
// output volume and records the output scale.
func (x *peExec[E]) runLayer() {
	p := &x.pass
	n := len(p.out)
	switch {
	case p.l.Kind == nn.FullyConnected:
		p.outScale = x.runFC(x.el.floats(n))
	case p.l.Kind != nn.Conv: // sub-sampling: lower admits no other kind
		p.outScale = x.runPool()
	case p.l.Algo() == AlgoWinograd:
		fb := x.el.floats(n)
		x.runWinograd(p.l, p.st, x.el.floatsIn(), fb)
		p.outScale = x.el.closeLayer(fb)
	default:
		// The layer's zero-padded channel planes are staged once, stacked
		// (an unpadded input volume already is that stack), for the tiles to
		// gather from.
		p.outScale = x.el.conv(stackPlanes(x.stack, p.l, p.cur))
	}
	x.maxRequant = max(x.maxRequant, p.outScale)
}

// runFC is the fully-connected PE as a single-input/single-output 1x1
// convolution: the element type's kernel leaves each neuron's biased sum in
// fb, then the folded activation and normalisation (LogSoftMax/SoftMax in
// float — the paper folds normalisation into the last PE) apply and the
// layer closes.
func (x *peExec[E]) runFC(fb []float32) float64 {
	x.el.fc(fb)
	foldFC(x.pass.l, fb)
	return x.el.closeLayer(fb)
}

// foldFC applies FC layer l's folded activation and normalisation to one
// image's biased sums.
func foldFC(l *LayerHW, fb []float32) {
	activateInPlace(l.Activation, fb)
	if l.Normalize != NoActivation {
		normalizeInPlace(l.Normalize, fb)
	}
}

// runPool is the sub-sampling PE: each window replaced by its maximum
// (maxPool) or average (one channel plane at a time). Max pooling runs on
// the elements themselves — integer max is exact and order-free, and max
// commutes with the monotone dequantization — so a max pool with no folded
// activation keeps the input's codes and scale; the other pools go through
// the float stage and close. A window's elements are visited in ascending
// (m,n) order, as the oracle's window slots are.
func (x *peExec[E]) runPool() float64 {
	p := &x.pass
	l := p.l
	floats := x.el.floats(len(p.out))
	if l.Kind == nn.MaxPool {
		x.maxPool()
		if l.Activation == NoActivation {
			return p.inScale
		}
		x.el.maxFloats(floats, p.out)
	} else {
		outHW, inHW := l.OutShape.Height*l.OutShape.Width, l.InShape.Height*l.InShape.Width
		for ci := 0; ci < l.InShape.Channels; ci++ {
			x.el.avgPool(floats[ci*outHW:][:outHW], padPlane(x.plane, l, p.cur[ci*inHW:(ci+1)*inHW]))
		}
	}
	activateInPlace(l.Activation, floats)
	return x.el.closeLayer(floats)
}

// maxPool writes the max pool of the layer in flight into its output
// elements, one kernel call per channel plane (maxPoolPlane) — or one for
// the whole layer where its planes stack into one (stackedPool).
func (x *peExec[E]) maxPool() {
	p := &x.pass
	l := p.l
	if s, ok := stackedPool(l); ok {
		maxPoolPlane(x.poolPlane, p.cur, p.out, &s, poolMax8Rows[E](&s, len(p.cur)+poolSlack))
		return
	}
	outHW, inHW := l.OutShape.Height*l.OutShape.Width, l.InShape.Height*l.InShape.Width
	for ci := 0; ci < l.InShape.Channels; ci++ {
		plane := padPlane(x.plane, l, p.cur[ci*inHW:(ci+1)*inHW])
		maxPoolPlane(x.poolPlane, plane, p.out[ci*outHW:][:outHW], l, poolMax8Rows[E](l, poolReach(l, p.cur, plane, ci)+poolSlack))
	}
}

// stackedPool returns max-pool layer l as one channel whose plane is the
// whole input volume, and whether that is the same layer: with no padding
// and an input height of outH·stride, channel c's output row oy reads the
// rows of the stacked plane's output row c·outH + oy (the window grid's fit
// then keeps k ≤ stride, so no window reaches into the next channel), and
// the outputs follow each other in the same order.
func stackedPool(l *LayerHW) (LayerHW, bool) {
	if l.Pad != 0 || l.InShape.Height != l.OutShape.Height*l.Stride {
		return LayerHW{}, false
	}
	s := *l
	s.InShape.Height *= s.InShape.Channels
	s.OutShape.Height *= s.OutShape.Channels
	s.InShape.Channels, s.OutShape.Channels = 1, 1
	return s, true
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

// stackPlanes returns a conv layer's input as the tiles gather from it: its
// zero-padded channel planes staged back to back in scratch, or the input
// volume itself when the layer has no padding.
func stackPlanes[T float32 | int8](scratch []T, l *LayerHW, in []T) []T {
	if l.Pad == 0 {
		return in
	}
	inHW, plane := l.InShape.Height*l.InShape.Width, l.PaddedHeight()*l.PaddedWidth()
	stack := scratch[:l.InShape.Channels*plane]
	for ci := 0; ci < l.InShape.Channels; ci++ {
		padPlane(stack[ci*plane:], l, in[ci*inHW:(ci+1)*inHW])
	}
	return stack
}

// avgPlane writes one channel's average pool into fb: each window's sum in
// accumulator type A — the oracle's float32 chain, or an exact int32 sum of
// codes — times scale. A float32 sum times a float32 1/k² rounds once either
// way, in float32 or through float64.
func avgPlane[E float32 | int8, A float32 | int32](fb []float32, plane []E, l *LayerHW, scale float64) {
	k, stride, pw, outW := l.Kernel, l.Stride, l.PaddedWidth(), l.OutShape.Width
	for i := range fb {
		fb[i] = float32(float64(windowSum[E, A](plane[(i/outW*pw+i%outW)*stride:], k, pw)) * scale)
	}
}

// f32Ops is the float32 datapath's per-type value: images staged as they
// are, float results written straight into the output volume, and no layer
// close.
type f32Ops struct {
	x     *peExec[float32]
	tiles convPass[float32, float32, float32]
	lanes []float32 // fcChunk's interleaved inputs, grown on first use
}

// newF32Exec binds a float32 executor to its PE.
func newF32Exec(b peBase) *peExec[float32] {
	x := &peExec[float32]{peBase: b, poolPlane: poolMaxPlane}
	o := &f32Ops{x: x}
	o.tiles.ops, x.el = o, o
	return x
}

func (o *f32Ops) prepare(*scratchWords) {}

func (o *f32Ops) load(dst, img []float32) float64     { copy(dst, img); return 0 }
func (o *f32Ops) store(dst, src []float32, _ float64) { copy(dst, src) }

func (o *f32Ops) floats(n int) []float32         { return o.x.pass.out[:n] }
func (o *f32Ops) floatsIn() []float32            { return o.x.pass.cur }
func (o *f32Ops) maxFloats([]float32, []float32) {} // the output already is the float stage
func (o *f32Ops) closeLayer([]float32) float64   { return 0 }
func (o *f32Ops) avgPool(fb, plane []float32) {
	k := o.x.pass.l.Kernel
	avgPlane[float32, float32](fb, plane, o.x.pass.l, float64(1/float32(k*k)))
}

// conv computes each output cell's whole chain on the shared nests, adds the
// bias and applies the folded activation. The AVX2 tile stores biased sums,
// so the layer is then activated once; the Go tile's stores activate their
// own.
func (o *f32Ops) conv(stack []float32) float64 {
	p := &o.x.pass
	o.tiles.set(p.l, stack, p.st.w, p.st.taps, stack, p.st.w, p.st.taps, len(p.st.taps))
	o.tiles.run()
	if o.tiles.tile8 {
		activateInPlace(p.l.Activation, p.out)
	}
	return 0
}

// convPosTile is the output-position register-tile width of the convolution
// kernels: one weight load feeds this many positions of each of the two
// output channels a tile covers.
const convPosTile = 4

// convLanes is the position width of the AVX2 tiles: one ymm register of
// float32 or int32 cells.
const convLanes = 8

// convTile8OK reports whether an AVX2 tile may run conv layer l, loading at
// taps from a stack of stackLen words (float32 words, or the int8 pair
// planes' words) with weight rows of row words in a weight table of weights
// words: the CPU has the tile, the layer is stride 1 and at least one tile
// wide, and — because the tile's loads are unchecked — the taps ascend from
// a non-negative first offset, the last tile's last tap ends inside the
// stack and every weight row is whole. A tile reads convLanes words per tap
// from each of its output rows' windows, the rows a padded width apart; the
// last tile's second row is the layer's last, so its windows start at
// lastTile below. Anything else runs the Go tile.
func convTile8OK(l *LayerHW, taps []int32, row, weights, stackLen int) bool {
	if !haveAVX2 || l.Stride != 1 || l.OutShape.Width < convLanes || len(taps) == 0 || taps[0] < 0 ||
		weights != l.OutShape.Channels*row {
		return false
	}
	for i := 1; i < len(taps); i++ {
		if taps[i] < taps[i-1] {
			return false
		}
	}
	lastTile := (l.OutShape.Height-1)*l.PaddedWidth() + l.OutShape.Width - convLanes
	return lastTile+int(taps[len(taps)-1])+convLanes <= stackLen
}

// convPass is the conv layer in flight as the nests both element types share
// read it — elements E (float32 words or int8 codes), AVX2 weight words W,
// accumulators A — and ops, the per-type value, bound once per session.
type convPass[E float32 | int8, W float32 | uint32, A float32 | int32] struct {
	l      *LayerHW
	stack  []E     // the stacked zero-padded input planes
	w      []E     // the Go tile's weight rows, len(taps) per channel
	taps   []int32 // tapOffsets
	tile8  bool    // the layer runs on the AVX2 tile (convTile8OK), over stack8, w8 and taps8
	stack8 []W     // the AVX2 tile's input words: the stack itself, or the int8 pair planes
	w8     []W     // the AVX2 tile's weight table, row8 words per channel
	taps8  []int32
	row8   int
	ops    convOps[E, W, A]
}

// convOps is an element type's part of the conv nests: its AVX2 tile
// call and its store. A pointer handed through an interface escapes, so no
// tile's sums cross it by reference: tile8 stores its own, and store4 takes
// a Go tile's by value.
type convOps[E float32 | int8, W float32 | uint32, A float32 | int32] interface {
	// tile8 runs the AVX2 tile (convTile8 twice, convTile16I8) for channels
	// f, whose weight rows start at w, over two output rows: the first's
	// windows start at stack8[at] and its sums are stored from output
	// position pos on, the second's rowIn words and rowOut positions on.
	tile8(at, rowIn int, w [4]*W, f [4]int, pos, rowOut int)
	// store4 stores the first n of a Go tile's sums for channel fi.
	store4(fi, pos, n int, acc [convPosTile]A)
}

// set makes conv layer l over stack the layer in flight and decides its
// tile, whose input is stack8.
func (c *convPass[E, W, A]) set(l *LayerHW, stack, w []E, taps []int32, stack8, w8 []W, taps8 []int32, row8 int) {
	c.l, c.stack, c.w, c.taps = l, stack, w, taps
	c.stack8, c.w8, c.taps8, c.row8 = stack8, w8, taps8, row8
	c.tile8 = convTile8OK(l, taps8, row8, len(w8), len(stack8))
}

// run computes every output channel of the layer in flight, two channels ×
// convPosTile positions per register tile: output-channel pair → row → tile
// → input channel → tap, accumulators never leaving registers. A layer
// convTile8OK admits goes to run8 instead; this Go tile is the path for
// every other layer and platform, and the AVX2 tiles' reference.
func (c *convPass[E, W, A]) run() {
	if c.tile8 {
		c.run8()
		return
	}
	l, taps := c.l, c.taps
	stride, pw := l.Stride, l.PaddedWidth()
	outH, outW, f := l.OutShape.Height, l.OutShape.Width, l.OutShape.Channels
	for fi := 0; fi < f; fi += 2 {
		// An odd channel count ends on a lone channel: run it as both halves
		// of the tile (same values computed twice, stored once).
		fj := min(fi+1, f-1)
		w0, w1 := c.w[fi*len(taps):][:len(taps)], c.w[fj*len(taps):][:len(taps)]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox += convPosTile {
				// A row's last tile may hold fewer positions: the surplus
				// ones recompute its last, so no gather leaves the stack.
				n := min(convPosTile, outW-ox)
				win := c.stack[(oy*pw+ox)*stride:]
				a, b := convTileGo[E, A](win, stride*min(1, n-1), stride*min(2, n-1), stride*(n-1), w0, w1, taps)
				c.ops.store4(fi, oy*outW+ox, n, a)
				if fj != fi {
					c.ops.store4(fj, oy*outW+ox, n, b)
				}
			}
		}
	}
}

// run8 is run on the AVX2 tile, four channels × two output rows ×
// convLanes positions per call. A row's last tile starts at outW-convLanes
// and recomputes the positions it shares with the tile before (the same
// values, stored again); at an odd height the last row pair overlaps the one
// before it, and a one-row layer runs row 0 as both rows; a channel count
// ending inside a quad repeats its last channel.
func (c *convPass[E, W, A]) run8() {
	l := c.l
	pw, outH, outW := l.PaddedWidth(), l.OutShape.Height, l.OutShape.Width
	rowIn, rowOut := pw, outW
	if outH == 1 {
		rowIn, rowOut = 0, 0
	}
	for fi := 0; fi < l.OutShape.Channels; fi += 4 {
		f := quad(fi, l.OutShape.Channels)
		w := [4]*W{&c.w8[f[0]*c.row8], &c.w8[f[1]*c.row8], &c.w8[f[2]*c.row8], &c.w8[f[3]*c.row8]}
		for oy := 0; oy < outH; oy += 2 {
			y := max(min(oy, outH-2), 0)
			for ox := 0; ox < outW; ox += convLanes {
				col := min(ox, outW-convLanes)
				c.ops.tile8(y*pw+col, rowIn, w, f, y*outW+col, rowOut)
			}
		}
	}
}

// quad lists the four channels (or neurons) of a tile from i on in a range
// ending at hi: a range ending inside the quad repeats its last one.
func quad(i, hi int) (f [4]int) {
	for j := range f {
		f[j] = min(i+j, hi-1)
	}
	return f
}

// convTileGo is the MAC chain of one register tile, every input channel and
// tap in one flat loop: win starts at the top-left element of the tile's
// first window in channel 0's plane, s1–s3 are where the other three
// positions' windows start relative to it, w0 and w1 the output channels'
// weights. Each cell accumulates from zero in weight order: the oracle's
// chain for float32, an exact int32 sum for int8 codes (CND026). Each
// product is converted to A before it is added, which keeps a target with a
// fused multiply-add from rounding once where amd64 rounds twice. Kept out of
// line so that its loop, not run's nest, decides what stays in
// registers.
//
//go:noinline
func convTileGo[E float32 | int8, A float32 | int32](win []E, s1, s2, s3 int, w0, w1 []E, taps []int32) (a, b [convPosTile]A) {
	var a0, a1, a2, a3, b0, b1, b2, b3 A
	w0, w1 = w0[:len(taps)], w1[:len(taps)]
	for t, o := range taps {
		u, v := A(w0[t]), A(w1[t])
		x0, x1, x2, x3 := A(win[o]), A(win[int(o)+s1]), A(win[int(o)+s2]), A(win[int(o)+s3])
		a0 += A(u * x0)
		a1 += A(u * x1)
		a2 += A(u * x2)
		a3 += A(u * x3)
		b0 += A(v * x0)
		b1 += A(v * x1)
		b2 += A(v * x2)
		b3 += A(v * x3)
	}
	return [convPosTile]A{a0, a1, a2, a3}, [convPosTile]A{b0, b1, b2, b3}
}

// tile8 and store4 are the float32 part of the shared conv nests (convOps):
// the AVX2 tile runs a row pair as two convTile8 calls, one per row, each
// adding each channel's bias to its finished chains and storing them itself
// (a repeated channel or row stores the same values twice), which conv then
// activates; store4 adds the bias to a Go tile's first n sums for channel
// fi, applies the folded activation and writes them from pos on.
func (o *f32Ops) tile8(at, rowIn int, w [4]*float32, f [4]int, pos, rowOut int) {
	o.tileRow(at, w, f, pos)
	o.tileRow(at+rowIn, w, f, pos+rowOut)
}

func (o *f32Ops) tileRow(at int, w [4]*float32, f [4]int, pos int) {
	p, c := &o.x.pass, &o.tiles
	hw, b := p.l.OutShape.Height*p.l.OutShape.Width, p.st.b
	convTile8(&c.stack8[at], &c.taps8[0], c.row8, w[0], w[1], w[2], w[3],
		&p.out[f[0]*hw+pos], &p.out[f[1]*hw+pos], &p.out[f[2]*hw+pos], &p.out[f[3]*hw+pos],
		biasAt(b, f[0]), biasAt(b, f[1]), biasAt(b, f[2]), biasAt(b, f[3]))
}

func (o *f32Ops) store4(fi, pos, n int, acc [convPosTile]float32) {
	p := &o.x.pass
	bias := biasAt(p.st.b, fi)
	out := p.out[fi*p.l.OutShape.Height*p.l.OutShape.Width+pos:][:n]
	for i, v := range acc[:n] {
		out[i] = v + bias
	}
	activateInPlace(p.l.Activation, out)
}

// poolStep is how many consecutive raw elements the AVX2 max-pool kernel of
// element type E loads per tap and step (poolMaxPlane, poolMaxPlaneI8): 16
// float32 words, 32 int8 codes — two ymm registers, one.
func poolStep[E float32 | int8]() int {
	var e E
	if _, ok := any(e).(int8); ok {
		return 32
	}
	return 16
}

// poolMax8Rows reports how many leading output rows of sub-sampling layer l
// the AVX2 max kernel of element type E may run over a padded plane from
// whose start planeLen elements can be read: none unless the CPU has it and
// the layer max-pools at stride 1 or 2 with a kernel of at least one tap;
// past that — because the kernel's loads are unchecked — every row whose
// last step's loads end inside those elements. A step covers poolStep/s
// windows from poolStep raw elements per tap; a row's last step starts at
// the last multiple of that below outW, and its lanes past the row's last
// window load on past it, so at stride 2 a plane's last rows can read past a
// plane with nothing readable after it; the rows from there on run the Go
// loop.
func poolMax8Rows[E float32 | int8](l *LayerHW, planeLen int) int {
	s, pw, step := l.Stride, l.PaddedWidth(), poolStep[E]()
	if !haveAVX2 || l.Kind != nn.MaxPool || s < 1 || s > 2 || l.Kernel < 1 {
		return 0
	}
	// Elements a row's last step reads from the row's first window on: the
	// step covers step/s windows, a power of two.
	last := (l.OutShape.Width - 1) &^ (step/s - 1)
	reach := last*s + step + (l.Kernel-1)*(pw+1)
	switch {
	case (l.OutShape.Height-1)*s*pw+reach <= planeLen:
		return l.OutShape.Height
	case reach > planeLen:
		return 0
	}
	return (planeLen-reach)/(s*pw) + 1
}

// poolReach is how many elements can be read from the start of channel ci's
// padded plane of sub-sampling layer l over input in: the scratch plane when
// the layer pads, else the rest of the input, of which the plane is a view —
// so only the last channel's plane ends where the input does.
func poolReach[E float32 | int8](l *LayerHW, in, plane []E, ci int) int {
	if l.Pad > 0 {
		return len(plane)
	}
	return len(in) - ci*l.InShape.Height*l.InShape.Width
}

// maxPoolPlane writes one channel's max pool from its padded plane, for
// float32 words and int8 codes alike: output rows [0,rows8) in one call of
// the element type's AVX2 kernel (poolMaxPlane, poolMaxPlaneI8;
// poolMax8Rows decides rows8), and the rest with windowMax.
func maxPoolPlane[E float32 | int8](kernel func(plane *E, k, pw, stride, outW, rows int, out *E), plane, out []E, l *LayerHW, rows8 int) {
	k, stride, pw := l.Kernel, l.Stride, l.PaddedWidth()
	outH, outW := l.OutShape.Height, l.OutShape.Width
	if rows8 > 0 {
		kernel(&plane[0], k, pw, stride, outW, rows8, &out[0])
	}
	for oy := rows8; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			out[oy*outW+ox] = windowMax(plane[(oy*pw+ox)*stride:], k, pw)
		}
	}
}

// windowMax is the maximum of the k×k window whose top-left element starts
// win in a plane of row length pw, its elements visited in ascending (m,n)
// order from the element type's lowest value: −Inf for float32 words, so a
// NaN is skipped and the first of two equal zeros stays, and −128 for codes.
func windowMax[E float32 | int8](win []E, k, pw int) E {
	var v E
	switch p := any(&v).(type) {
	case *float32:
		*p = float32(math.Inf(-1))
	case *int8:
		*p = math.MinInt8
	}
	for m := 0; m < k; m++ {
		for _, e := range win[m*pw:][:k] {
			if e > v {
				v = e
			}
		}
	}
	return v
}

// windowSum is windowMax's sum in accumulator type A, from zero in the same
// order: the oracle's float32 chain, or an exact int32 sum of codes.
func windowSum[E float32 | int8, A float32 | int32](win []E, k, pw int) A {
	var v A
	for m := 0; m < k; m++ {
		for _, e := range win[m*pw:][:k] {
			v += A(e)
		}
	}
	return v
}

// fc seeds each neuron's sum with its bias and continues the chains over the
// whole input volume, each starting from its bias and visiting the inputs in
// the streaming oracle's order, so the result is bit-identical. On the AVX2
// kernel, which needs one whole 8-input block, each whole group of
// convLanes neurons runs fcGroup8; the neurons past the last whole group run
// again as the last convLanes of the layer, into a scratch seeded with their
// biases, of which only theirs are kept, as a conv row's last tile does. A
// layer narrower than convLanes, and every neuron of a layer the kernel does
// not run, take the Go tile, four at a time.
func (o *f32Ops) fc(fb []float32) {
	p := &o.x.pass
	clear(fb)
	copy(fb, p.st.b)
	in, w, n := p.cur, p.st.w, len(fb)
	oi := 0
	if haveAVX2 && len(in) >= convLanes {
		for ; oi+convLanes <= n; oi += convLanes {
			o.fcGroup8(oi, fb[oi:oi+convLanes])
		}
		if oi < n && n >= convLanes {
			var acc [convLanes]float32
			for j := range acc {
				acc[j] = biasAt(p.st.b, n-convLanes+j)
			}
			o.fcGroup8(n-convLanes, acc[:])
			copy(fb[oi:], acc[convLanes-(n-oi):])
			oi = n
		}
	}
	for ; oi < n; oi += 4 {
		f := quad(oi, n)
		acc := fcTileGo(in, w, len(in), f, [4]float32{fb[f[0]], fb[f[1]], fb[f[2]], fb[f[3]]})
		for j, fj := range f {
			fb[fj] = acc[j]
		}
	}
}

// fcGroup8 continues the chains of the convLanes neurons from first on,
// whose sums start at acc: the whole 8-input blocks on fcRows8, the inputs
// past the last block here.
func (o *f32Ops) fcGroup8(first int, acc []float32) {
	in, w := o.x.pass.cur, o.x.pass.st.w
	v := len(in)
	body := v &^ (convLanes - 1)
	fcRows8(&in[0], body/convLanes, &w[first*v], v, &acc[0])
	for j := range acc[:convLanes] {
		a := acc[j]
		for h, wv := range w[(first+j)*v+body : (first+j+1)*v] {
			a += float32(wv * in[body+h])
		}
		acc[j] = a
	}
}

// fcChunk is fc and foldFC over a chunk of c images in one pass over the
// weights, on the AVX2 image-lane kernel fcLanes8: the inputs are
// interleaved, lane i image i's, and each group of convLanes neurons is one
// kernel call whose lanes each continue one image's chain from the neuron's
// bias, visiting the inputs in ascending order with two roundings per MAC —
// the chain fcRows8 and fcTileGo keep, so the sums are theirs bit for bit.
// The neurons past the last whole group run again as the last convLanes of
// the layer, and a layer narrower than convLanes repeats its last neuron,
// each storing the same sums again. A lone image, or a CPU without AVX2,
// runs fc image by image instead.
func (o *f32Ops) fcChunk(in, out []float32, _, _ []float64, stride, c int) bool {
	if !haveAVX2 || c < 2 {
		return false
	}
	l, w, b := o.x.pass.l, o.x.pass.st.w, o.x.pass.st.b
	v, n := l.InShape.Volume(), l.OutShape.Volume()
	if len(o.lanes) < v*convLanes {
		o.lanes = make([]float32, v*convLanes)
	}
	lanes := o.lanes[:v*convLanes]
	if c < convLanes {
		clear(lanes) // the idle lanes compute on zeros
	}
	for i := 0; i < c; i++ {
		for h, xv := range in[i*stride:][:v] {
			lanes[h*convLanes+i] = xv
		}
	}
	var rows [convLanes]*float32
	var acc [convLanes][convLanes]float32
	for g := 0; g < n; g += convLanes {
		first := min(g, max(n-convLanes, 0))
		for j := range rows {
			f := min(first+j, n-1)
			rows[j] = &w[f*v]
			for i := range acc[j] {
				acc[j][i] = biasAt(b, f)
			}
		}
		fcLanes8(&lanes[0], v, &rows, &acc)
		for j := range rows {
			f := min(first+j, n-1)
			for i := 0; i < c; i++ {
				out[i*stride+f] = acc[j][i]
			}
		}
	}
	for i := 0; i < c; i++ {
		foldFC(l, out[i*stride:][:n])
	}
	return true
}

// fcTileGo continues the chains of FC neurons f over the inputs in: neuron
// f[j]'s row starts at w[f[j]·v] and its sum at acc[j], and each input adds
// its product in order — the oracle's chain for float32 from the bias, an
// exact int32 sum for int8 codes from zero. A repeated neuron computes the
// same sum twice.
func fcTileGo[E float32 | int8, A float32 | int32](in, w []E, v int, f [4]int, acc [4]A) [4]A {
	n := len(in)
	w0, w1, w2, w3 := w[f[0]*v:][:n], w[f[1]*v:][:n], w[f[2]*v:][:n], w[f[3]*v:][:n]
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for h, xv := range in {
		x := A(xv)
		a0 += A(A(w0[h]) * x)
		a1 += A(A(w1[h]) * x)
		a2 += A(A(w2[h]) * x)
		a3 += A(A(w3[h]) * x)
	}
	return [4]A{a0, a1, a2, a3}
}

// biasAt returns output i's bias, zero for a layer without one.
func biasAt(b []float32, i int) float32 {
	if len(b) == 0 {
		return 0
	}
	return b[i]
}

// activateInPlace applies the folded pointwise non-linearity to every value,
// choosing the function once per slice rather than once per value.
func activateInPlace(kind nn.Kind, vals []float32) {
	switch kind {
	case nn.ReLU:
		for i, v := range vals {
			if v < 0 {
				vals[i] = 0
			}
		}
	case nn.Sigmoid, nn.TanH:
		for i, v := range vals {
			vals[i] = applyActivation(kind, v)
		}
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
