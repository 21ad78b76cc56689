package dataflow

import (
	"fmt"
	"math"

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

// peStream is the part of a PE executor that does not depend on the element
// type: the PE and its stream ends, the session hooks, the worker pool, the
// per-layer state resolved once per session, the resident frame loop and the
// Winograd convolution (whose transform domain is float32 on both datapaths).
//
// Windows are gathered straight from the zero-padded channel planes — the
// filter chain itself is simulated FIFO by FIFO only by the word-at-a-time
// oracle in wordpath.go. The PE's modeled port parallelism (Par.In input
// maps read concurrently, Par.Out output maps computed in parallel) executes
// for real on the host: conv and FC layers shard their output-channel range
// into Par.Out bands and sub-sampling layers their channel range into Par.In
// bands, on a worker pool bounded by the PE's share of GOMAXPROCS
// (newPEWorkerPool). Bands partition independent output cells, never an
// accumulation chain, so results do not depend on the parallelism setting.
//
// A warm executor allocates nothing and spawns nothing per image: scratch is
// sized once in prepare, and the band bodies are methods bound once (bandFns)
// that read the pass in flight from the executor instead of capturing it.
type peStream struct {
	pe    *PE
	dm    *Datamover
	in    *fifo.FIFO
	out   *fifo.FIFO
	stats *PEStats
	track *obs.Track // nil when tracing is off

	// bits is the fabric word width (Spec.Bits) the layers are lowered at.
	bits int

	// sessionPEs counts the PE executors of the session, every one of them
	// streaming concurrently. The worker pool's processor share divides by
	// it.
	sessionPEs int

	// wgCache is the accelerator's pre-transformed Winograd weight cache
	// (layer name → f·c·16 transformed words), shared read-only across CU
	// clones like the int8 code store.
	wgCache map[string][]float32

	// Session hooks: onImage advances the RunBatch barrier after each
	// retired image; onErr latches a failure before the input drain starts,
	// so the feeder learns to close the head FIFO and the drain terminates.
	onImage func()
	onErr   func(error)

	// resolved is the per-layer state resolveLayers cached for the session.
	resolved []layerState

	// pool executes port-parallel bands; nil when the PE's parallelism or
	// the processor budget is 1 (the sequential schedule). fns are the
	// executor's band bodies and inBands/outBands the PE's normalized port
	// counts, all set once in resolveLayers.
	pool              *workerPool
	fns               bandFns
	inBands, outBands int

	wino winogradPass // algopath.go
}

// layerState is what both element types read of one fused layer, resolved
// once per session instead of once per image.
type layerState struct {
	sched       Schedule  // the layer's cycles and counters per image
	w, b        []float32 // float weight stream and bias (compute layers)
	taps        []int32   // window gather index (direct and im2col_gemm conv layers)
	wg          []float32 // Winograd-transformed weights (winograd_f23 layers)
	streamBytes int64     // weight+bias bytes re-read from DDR per image (0 when on-chip)
	fusedKey    string    // datamover buffer key of the fused-layer hand-off
}

// scratchWords are the scratch sizes of the PE's most demanding layer, which
// each element type allocates in its own word type.
type scratchWords struct {
	vol         int // largest volume a layer reads or writes
	plane       int // largest zero-padded channel plane of a padded layer
	paddedStack int // largest stack of padded channel planes a tap-table convolution gathers from (an unpadded volume is its own stack)
	winogradIn  int // largest input volume of a winograd_f23 layer
}

// bandFns are an executor's band bodies as method values, bound once per
// session so that dispatching a band allocates no closure.
type bandFns struct {
	conv, pool, fc bandFunc // the element type's kernels
	wgMul, wgInv   bandFunc // the Winograd passes, peStream's own
}

// elemPath is what the frame loop asks of an element type: its session
// set-up, the two frame ends, a layer's kernel and the fused hand-off.
type elemPath interface {
	prepare() error
	popFrame() error      // receive one image as the current volume
	runLayer(li int)      // run layer li from the current volume into the output volume
	handOff(li int) error // the output volume becomes the current one through DDR
	pushFrame()           // send the output volume downstream
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

// resolveLayers is the once-per-session resolution pass both element types
// share: it validates every fused layer against what the gather assumes,
// caches its schedule, weight stream and derived tables, sizes the scratch of
// the PE's most demanding layer and starts the worker pool on the executor's
// band bodies.
func (x *peStream) resolveLayers(fns bandFns) (scratchWords, error) {
	layers := x.pe.Layers
	x.resolved = make([]layerState, len(layers))
	sz := scratchWords{vol: layers[0].InShape.Volume()}
	var wgPlane, wgTiles, wgAcc int
	for li := range layers {
		l, st := &layers[li], &x.resolved[li]
		st.sched = x.pe.Schedule(li, x.bits)
		if li+1 < len(layers) {
			if next := &layers[li+1]; next.InShape.Volume() != l.OutShape.Volume() {
				return sz, fmt.Errorf("fused intermediate has %d words, layer %q expects %d", l.OutShape.Volume(), next.Name, next.InShape.Volume())
			}
			st.fusedKey = x.pe.ID + "/fused/" + l.Name
		}
		sz.vol = max(sz.vol, l.OutShape.Volume())
		plane := l.PaddedHeight() * l.PaddedWidth()
		switch {
		case l.Kind.IsFeatureExtraction():
			if err := checkWindowGrid(l); err != nil {
				return sz, err
			}
			if l.Pad > 0 {
				sz.plane = max(sz.plane, plane)
			}
		case l.Kind != nn.FullyConnected:
			return sz, fmt.Errorf("layer %q: unsupported PE kind %v", l.Name, l.Kind)
		}
		if l.Kind != nn.Conv && l.Kind != nn.FullyConnected {
			continue
		}
		w, b, err := x.dm.WeightsRef(l.Name)
		if err != nil {
			return sz, fmt.Errorf("layer %q: %w", l.Name, err)
		}
		if len(w) != l.WeightWords() {
			return sz, fmt.Errorf("layer %q: weight stream has %d words, want %d", l.Name, len(w), l.WeightWords())
		}
		st.w, st.b = w, b
		if !x.pe.WeightsOnChip {
			// The datapath re-reads its own elements: a float32 word each, or
			// one byte per code where a word packs lanes of them.
			st.streamBytes = int64(4/lanesAt(x.bits)) * int64(len(w)+len(b))
		}
		if l.Kind != nn.Conv {
			continue
		}
		if st.sched.XformWords == 0 { // not in the Winograd transform domain
			st.taps = tapOffsets(l)
			if l.Pad > 0 {
				sz.paddedStack = max(sz.paddedStack, l.InShape.Channels*plane)
			}
			continue
		}
		if err := checkWinograd(l); err != nil {
			return sz, err
		}
		if st.wg = x.wgCache[l.Name]; st.wg == nil {
			// Spec mutated after Instantiate (tests do this): derive the
			// transformed weights locally instead.
			st.wg = winogradTransformWeights(w, l.InShape.Channels, l.OutShape.Channels)
		}
		tiles := l.OutShape.Height / 2 * (l.OutShape.Width / 2)
		sz.winogradIn = max(sz.winogradIn, l.InShape.Volume())
		wgPlane = max(wgPlane, plane)
		wgTiles = max(wgTiles, tiles*16)
		wgAcc = max(wgAcc, l.OutShape.Channels*tiles*16)
	}
	width := x.pe.Par.Normalize()
	x.inBands, x.outBands = width.In, width.Out
	x.fns = fns
	x.fns.wgMul, x.fns.wgInv = x.winogradMulBand, x.winogradInverseBand
	x.pool = newPEWorkerPool(max(width.In, width.Out), x.sessionPEs)
	x.wino.plane = make([]float32, wgPlane)
	x.wino.v = make([]float32, wgTiles)
	x.wino.m = make([]float32, wgAcc)
	x.wino.mags = make([]float64, x.outBands)
	return sz, nil
}

// bandPlanes allocates one zero-padded channel plane per Par.In band.
func bandPlanes[T float32 | int8](bands, words int) [][]T {
	planes := make([][]T, bands)
	for i := range planes {
		planes[i] = make([]T, words)
	}
	return planes
}

// runStream is the resident session loop: frames are consumed until the
// input stream ends, each validated against the expected epoch sequence and
// forwarded under the same tag. prepare runs once per session, not once per
// image, so batches amortize it. On error the executor latches the failure
// first (so the session feeder stops and closes the head FIFO) and then
// drains its input; the drain completes before runStream returns, so no
// goroutine outlives the session.
func (x *peStream) runStream(e elemPath) error {
	defer x.out.Close()
	fail := func(err error) error {
		err = fmt.Errorf("dataflow: %s: %w", x.pe.ID, err)
		x.onErr(err)
		x.in.Drain()
		return err
	}
	if err := e.prepare(); err != nil {
		return fail(err)
	}
	defer x.pool.close()
	var epoch uint16
	for {
		h, ok, err := x.in.PopFrameHeader()
		if !ok {
			return nil // end of session
		}
		if err != nil {
			return fail(err)
		}
		if h != epoch {
			return fail(fmt.Errorf("frame epoch %d arrived, expected %d", h, epoch))
		}
		x.out.PushFrameHeader(h)
		if err := x.runImage(e); err != nil {
			return fail(fmt.Errorf("epoch %d: %w", h, err))
		}
		x.stats.Images++
		epoch++
		x.onImage()
	}
}

// runImage pushes one image through the PE's fused layer sequence and books
// each layer's counters from its schedule: they are pure adds, so the
// modeled passes fold into one closed form whatever order the host computed
// the cells in.
func (x *peStream) runImage(e elemPath) error {
	if err := e.popFrame(); err != nil {
		return err
	}
	layers := x.pe.Layers
	x.stats.ElemsIn += int64(layers[0].InShape.Volume())
	for li := range layers {
		st := &x.resolved[li]
		s := &st.sched

		// The span brackets the PE's cumulative cycle counter: its cycle
		// width is this layer's cycles plus, for fused layers, the DDR round
		// trip of the intermediate — so per-track span totals sum to exactly
		// PEStats.Cycles.
		sid := 0
		if x.track != nil {
			sid = x.track.Begin(layers[li].Name, x.stats.Cycles)
		}
		e.runLayer(li)
		if st.streamBytes > 0 {
			x.dm.AccountReadBytes(st.streamBytes)
		}
		if s.SpillWords > 0 {
			x.dm.AccountPartialSpill(s.SpillWords)
			x.stats.SpilledPartial += s.SpillWords
		}
		x.stats.WindowsRead += s.Windows
		x.stats.MACs += s.MACs
		x.stats.Cycles += s.Cycles()
		last := li == len(layers)-1
		if !last {
			// Fused-layer hand-off goes through the datamover (the paper's
			// partial-result exchange): one DDR write and one read back.
			if err := e.handOff(li); err != nil {
				return err
			}
			x.stats.Cycles += s.HandOff
		}
		if x.track != nil {
			x.track.AddWords(sid, s.OutWords)
			x.track.End(sid, x.stats.Cycles)
		}
		if last {
			// Outside the span, like popFrame: the push waits for room in
			// the consumer's FIFO, and that backpressure is the consumer's
			// time, not this layer's.
			e.pushFrame()
			x.stats.ElemsOut += int64(layers[li].OutShape.Volume())
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

// peExec executes one PE on the float32 datapath: the input image is pulled
// from the PE's input FIFO in one burst, each layer fills a preallocated
// output buffer, and the final layer's output leaves in a single PushSlice.
// Every output cell keeps the RunWords oracle's accumulation chain — input
// channels ci-major, ascending tap order within a channel, starting from
// zero — so arithmetic results, FIFO traffic totals, MAC counts and modeled
// cycles are identical to it at every parallelism setting. The direct and
// im2col_gemm schedules share one kernel: the algorithm drives the cycle,
// resource and verification models only.
type peExec struct {
	peStream

	// pass is the layer pass in flight, written by runLayer before each band
	// dispatch and read by the band bodies.
	pass struct {
		l        *LayerHW
		st       *layerState
		cur, out []float32 // the layer's input and output volumes
		tile8    bool      // the FC layer runs on its AVX2 kernel (runFC)
	}
	conv convPass[float32, float32, float32]

	// Scratch sized once in prepare for the PE's most demanding layer.
	inBuf  []float32
	outBuf []float32
	stack  []float32
	planes [][]float32 // zero-padded channel planes, one per Par.In band
}

func (x *peExec) prepare() error {
	sz, err := x.resolveLayers(bandFns{conv: x.convBand, pool: x.poolBand, fc: x.fcBand})
	if err != nil {
		return err
	}
	x.conv.ops = x
	x.inBuf = make([]float32, x.pe.Layers[0].InShape.Volume())
	x.outBuf = make([]float32, sz.vol)
	x.stack = make([]float32, sz.paddedStack)
	x.planes = bandPlanes[float32](x.inBands, sz.plane)
	return nil
}

func (x *peExec) popFrame() error {
	// The whole input image is burst out of the input FIFO up front; the
	// bounded FIFO still throttles the producer, PopInto just retires each
	// arriving chunk with one synchronisation instead of one per word.
	if n := x.in.PopInto(x.inBuf); n < len(x.inBuf) {
		return fmt.Errorf("input stream ended after %d of %d elements", n, len(x.inBuf))
	}
	x.pass.cur = x.inBuf
	return nil
}

func (x *peExec) runLayer(li int) {
	p := &x.pass
	p.l, p.st = &x.pe.Layers[li], &x.resolved[li]
	p.out = x.outBuf[:p.l.OutShape.Volume()]
	switch {
	case p.l.Kind == nn.FullyConnected:
		x.runFC()
	case p.l.Kind != nn.Conv: // sub-sampling: resolveLayers admits no other kind
		x.pool.bands(p.l.InShape.Channels, x.inBands, x.fns.pool)
	case p.l.Algo() == AlgoWinograd:
		x.runWinograd(p.l, p.st, p.cur, p.out)
	default:
		x.runConv()
	}
}

func (x *peExec) handOff(li int) (err error) {
	key := x.resolved[li].fusedKey
	x.dm.WriteBuffer(key, x.pass.out)
	x.pass.cur, err = x.dm.ReadBuffer(key)
	return err
}

func (x *peExec) pushFrame() { x.out.PushSlice(x.pass.out) }

// runConv is the convolutional PE, direct and im2col_gemm alike: the layer's
// zero-padded channel planes are staged once, stacked (an unpadded input
// volume already is that stack), then one band dispatch computes each output
// cell's whole chain, adds the bias and applies the folded activation.
func (x *peExec) runConv() {
	p := &x.pass
	x.conv.set(p.l, stackPlanes(x.stack, p.l, p.cur), p.st.w, p.st.taps, p.st.w, p.st.taps, len(p.st.taps))
	x.pool.bands(p.l.OutShape.Channels, x.outBands, x.fns.conv)
}

// convBand computes output channels [lo,hi) on the shared band nest. The
// AVX2 tile stores biased sums, so the band then applies the layer's
// activation once over its channels; the Go tile's stores activate their own.
func (x *peExec) convBand(band, lo, hi int) {
	x.conv.convBand(band, lo, hi)
	if x.conv.tile8 {
		p := &x.pass
		hw := p.l.OutShape.Height * p.l.OutShape.Width
		activateInPlace(p.l.Activation, p.out[lo*hw:hi*hw])
	}
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

// convPosTile is the output-position register-tile width of the convolution
// kernels: one weight load feeds this many positions of each of the two
// output channels a tile covers.
const convPosTile = 4

// convLanes is the position width of the AVX2 tiles: one ymm register of
// float32 or int32 cells.
const convLanes = 8

// convTile8OK reports whether an AVX2 tile may run conv layer l, loading at
// taps from a stack of stackLen elements (float32 words or int8 codes) with
// weight rows of row words in a weight table of weights words: the CPU has
// the tile, the layer is stride 1 and at least one tile wide, and — because
// the tile's loads are unchecked — the taps ascend from a non-negative first
// offset, the last tile's last tap ends inside the stack and every weight
// row is whole.
// Anything else runs the Go tile.
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

// convPass is the conv layer in flight as the band nests both element types
// share read it — elements E (float32 words or int8 codes), AVX2 weight words
// W, accumulators A — and ops, the executor, bound once per session.
type convPass[E float32 | int8, W float32 | uint32, A float32 | int32] struct {
	l     *LayerHW
	stack []E     // the stacked zero-padded input planes
	w     []E     // the Go tile's weight rows, len(taps) per channel
	taps  []int32 // tapOffsets
	tile8 bool    // the layer runs on the AVX2 tile (convTile8OK), over w8 and taps8
	w8    []W     // the AVX2 tile's weight table, row8 words per channel
	taps8 []int32
	row8  int
	ops   convOps[E, W, A]
}

// convOps is an element type's part of the conv band nests: its AVX2 tile
// call and its store. A pointer handed through an interface escapes, so no
// tile's sums cross it by reference: tile8 stores its own, and store4 takes
// a Go tile's by value.
type convOps[E float32 | int8, W float32 | uint32, A float32 | int32] interface {
	// tile8 runs the AVX2 tile (convTile8, convTile8I8) for channels f,
	// whose weight rows start at w, and stores each channel's sums once,
	// from output position pos on.
	tile8(win *E, taps *int32, row int, w [4]*W, f [4]int, pos int)
	// store4 stores the first n of a Go tile's sums for channel fi.
	store4(fi, pos, n int, acc [convPosTile]A)
}

// set makes conv layer l over stack the layer in flight and decides its tile.
func (c *convPass[E, W, A]) set(l *LayerHW, stack, w []E, taps []int32, w8 []W, taps8 []int32, row8 int) {
	c.l, c.stack, c.w, c.taps, c.w8, c.taps8, c.row8 = l, stack, w, taps, w8, taps8, row8
	c.tile8 = convTile8OK(l, taps8, row8, len(w8), len(stack))
}

// convBand computes output channels [lo,hi) of the layer in flight, two
// channels × convPosTile positions per register tile: output-channel pair →
// row → tile → input channel → tap, accumulators never leaving registers. A
// layer convTile8OK admits goes to convBand8 instead; this Go tile is the
// path for every other layer and platform, and the AVX2 tiles' reference.
func (c *convPass[E, W, A]) convBand(_, lo, hi int) {
	if c.tile8 {
		c.convBand8(lo, hi)
		return
	}
	l, taps := c.l, c.taps
	stride, pw := l.Stride, l.PaddedWidth()
	outH, outW := l.OutShape.Height, l.OutShape.Width
	for fi := lo; fi < hi; fi += 2 {
		// An odd band ends on a lone channel: run it as both halves of the
		// tile (same values computed twice, stored once).
		fj := min(fi+1, hi-1)
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

// convBand8 is convBand on the AVX2 tile, four channels × convLanes
// positions per call. A row's last tile starts at outW-convLanes and
// recomputes the positions it shares with the tile before (the same values,
// stored again); a band ending inside a quad repeats its last channel.
func (c *convPass[E, W, A]) convBand8(lo, hi int) {
	l := c.l
	pw, outH, outW := l.PaddedWidth(), l.OutShape.Height, l.OutShape.Width
	for fi := lo; fi < hi; fi += 4 {
		f := quad(fi, hi)
		w := [4]*W{&c.w8[f[0]*c.row8], &c.w8[f[1]*c.row8], &c.w8[f[2]*c.row8], &c.w8[f[3]*c.row8]}
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox += convLanes {
				col := min(ox, outW-convLanes)
				c.ops.tile8(&c.stack[oy*pw+col], &c.taps8[0], c.row8, w, f, oy*outW+col)
			}
		}
	}
}

// quad lists the four channels (or neurons) of a tile from i on in a band
// ending at hi: a band ending inside the quad repeats its last one.
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
// chain for float32, an exact int32 sum for int8 codes (CND026). Kept out of
// line so that its loop, not convBand's nest, decides what stays in
// registers.
//
//go:noinline
func convTileGo[E float32 | int8, A float32 | int32](win []E, s1, s2, s3 int, w0, w1 []E, taps []int32) (a, b [convPosTile]A) {
	var a0, a1, a2, a3, b0, b1, b2, b3 A
	w0, w1 = w0[:len(taps)], w1[:len(taps)]
	for t, o := range taps {
		u, v := A(w0[t]), A(w1[t])
		x0, x1, x2, x3 := A(win[o]), A(win[int(o)+s1]), A(win[int(o)+s2]), A(win[int(o)+s3])
		a0 += u * x0
		a1 += u * x1
		a2 += u * x2
		a3 += u * x3
		b0 += v * x0
		b1 += v * x1
		b2 += v * x2
		b3 += v * x3
	}
	return [convPosTile]A{a0, a1, a2, a3}, [convPosTile]A{b0, b1, b2, b3}
}

// tile8 and store4 are the float32 part of the shared conv band nests
// (convOps): the AVX2 tile adds each channel's bias to its finished chains
// and stores them itself (a repeated channel stores the same values twice);
// convBand activates them.
func (x *peExec) tile8(win *float32, taps *int32, n int, w [4]*float32, f [4]int, pos int) {
	p := &x.pass
	hw, b := p.l.OutShape.Height*p.l.OutShape.Width, p.st.b
	convTile8(win, taps, n, w[0], w[1], w[2], w[3],
		&p.out[f[0]*hw+pos], &p.out[f[1]*hw+pos], &p.out[f[2]*hw+pos], &p.out[f[3]*hw+pos],
		biasAt(b, f[0]), biasAt(b, f[1]), biasAt(b, f[2]), biasAt(b, f[3]))
}

func (x *peExec) store4(fi, pos, n int, acc [convPosTile]float32) { x.convStore(fi, pos, acc[:n]) }

// convStore adds the bias to a tile's sums for one channel, applies the
// folded activation and writes them to channel fi's output map from pos on.
func (x *peExec) convStore(fi, pos int, acc []float32) {
	p := &x.pass
	bias := biasAt(p.st.b, fi)
	out := p.out[fi*p.l.OutShape.Height*p.l.OutShape.Width+pos:][:len(acc)]
	for i, v := range acc {
		out[i] = v + bias
	}
	activateInPlace(p.l.Activation, out)
}

// poolHalf is the half-tile width of the AVX2 max-pool kernel: it computes
// two runs of this many consecutive windows of a row per call.
const poolHalf = convLanes / 2

// poolMax8Rows reports how many leading output rows of sub-sampling layer l
// the AVX2 max kernels may run over a padded plane from whose start planeLen
// elements (float32 words or int8 codes) can be read: none unless the CPU
// has them, the layer max-pools at stride 1 or 2 with a kernel of at least
// one tap and its rows are at least one half-tile wide; past that — because the kernels' loads are unchecked —
// every row whose last half-tile's loads end inside those elements. A
// half-tile loads poolHalf elements per tap at stride 1 and 2·poolHalf at
// stride 2, whose last element no window uses, so at stride 2 the last row
// of a plane with nothing readable after it reads one element too many; the
// rows from there on run the Go loop.
func poolMax8Rows(l *LayerHW, planeLen int) int {
	s, pw := l.Stride, l.PaddedWidth()
	if !haveAVX2 || l.Kind != nn.MaxPool || s < 1 || s > 2 || l.Kernel < 1 || l.OutShape.Width < poolHalf {
		return 0
	}
	// Words a row's last half-tile, at outW−poolHalf, reads from the row's
	// first window on.
	reach := l.OutShape.Width*s + (l.Kernel-1)*(pw+1)
	if reach > planeLen {
		return 0
	}
	return min(l.OutShape.Height, (planeLen-reach)/(s*pw)+1)
}

// poolBand is the sub-sampling PE over channels [lo,hi): one pass per
// channel, each window replaced by its maximum (maxPoolPlane) or average.
// Channels are independent maps, so with Par.In > 1 the channel range is
// sharded into bands that run concurrently, each padding into its own plane;
// within a channel the window order (and thus every float operation) is
// unchanged. A window's elements are visited in ascending (m,n) order, as the
// oracle's window slots are.
func (x *peExec) poolBand(band, lo, hi int) {
	p := &x.pass
	l := p.l
	k, stride, pw := l.Kernel, l.Stride, l.PaddedWidth()
	outHW, outW := l.OutShape.Height*l.OutShape.Width, l.OutShape.Width
	inHW := l.InShape.Height * l.InShape.Width
	inv := 1 / float32(k*k)
	for ci := lo; ci < hi; ci++ {
		plane := padPlane(x.planes[band], l, p.cur[ci*inHW:(ci+1)*inHW])
		out := p.out[ci*outHW:][:outHW]
		if l.Kind == nn.MaxPool {
			maxPoolPlane(poolMax8, plane, out, l, poolMax8Rows(l, poolReach(l, p.cur, plane, ci)))
		} else {
			for i := range out {
				out[i] = windowSum[float32, float32](plane[(i/outW*pw+i%outW)*stride:], k, pw) * inv
			}
		}
		activateInPlace(l.Activation, out)
	}
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
// float32 words and int8 codes alike: output rows [0,rows8) on the AVX2
// kernel (poolMax8, poolMax8I8; poolMax8Rows decides rows8) in half-tiles of
// poolHalf windows, two per call — a row's last half-tile starts at
// outW−poolHalf and recomputes the windows it shares with the one before, a
// call's two halves may lie in two rows, and an odd last half runs as both —
// and the rest with windowMax.
func maxPoolPlane[E float32 | int8](kernel func(win, win2 *E, k, pw, stride int, out, out2 *E), plane, out []E, l *LayerHW, rows8 int) {
	k, stride, pw := l.Kernel, l.Stride, l.PaddedWidth()
	outH, outW := l.OutShape.Height, l.OutShape.Width
	half, halfOut := -1, 0 // a half-tile waiting for its partner: plane and output offsets
	for oy := 0; oy < rows8; oy++ {
		for ox := 0; ox < outW; ox += poolHalf {
			col := min(ox, outW-poolHalf)
			win, o := (oy*pw+col)*stride, oy*outW+col
			if half < 0 {
				half, halfOut = win, o
				continue
			}
			kernel(&plane[half], &plane[win], k, pw, stride, &out[halfOut], &out[o])
			half = -1
		}
	}
	if half >= 0 {
		kernel(&plane[half], &plane[half], k, pw, stride, &out[halfOut], &out[halfOut])
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

// runFC implements the fully-connected PE as a single-input/single-output
// 1x1 convolution. The loop nest is output-major over the contiguous weight
// rows; each neuron's accumulation starts from its bias and visits the inputs
// in the same order as the streaming oracle, so the result is bit-identical —
// and since banding and the register tiles shard whole neurons, Par.Out-
// parallel execution preserves that exactly. The AVX2 kernel needs one whole
// 8-input block; resolveLayers checked that every weight row is whole.
func (x *peExec) runFC() {
	p := &x.pass
	clear(p.out)
	copy(p.out, p.st.b)
	p.tile8 = haveAVX2 && len(p.cur) >= convLanes
	x.pool.bands(len(p.out), x.outBands, x.fns.fc)
	activateInPlace(p.l.Activation, p.out)
	if p.l.Normalize != NoActivation {
		normalizeInPlace(p.l.Normalize, p.out)
	}
}

// fcBand accumulates neurons [lo,hi) over the whole input volume. On the
// AVX2 kernel (pass.tile8) each whole group of convLanes neurons runs
// fcGroup8; the neurons past the last whole group run again as the last
// convLanes of the band, into a scratch seeded with their biases, of which
// only theirs are kept, as a conv row's last tile does. A band narrower than
// convLanes, and every neuron of a layer the kernel does not run, take the Go
// tile, four at a time.
func (x *peExec) fcBand(_, lo, hi int) {
	p := &x.pass
	in := p.cur
	v := len(in)
	w := p.st.w
	oi := lo
	if p.tile8 {
		for ; oi+convLanes <= hi; oi += convLanes {
			x.fcGroup8(oi, p.out[oi:oi+convLanes])
		}
		if oi < hi && hi-lo >= convLanes {
			var acc [convLanes]float32
			for j := range acc {
				acc[j] = biasAt(p.st.b, hi-convLanes+j)
			}
			x.fcGroup8(hi-convLanes, acc[:])
			copy(p.out[oi:hi], acc[convLanes-(hi-oi):])
			oi = hi
		}
	}
	for ; oi < hi; oi += 4 {
		f := quad(oi, hi)
		acc := fcTileGo(in, w, v, f, [4]float32{p.out[f[0]], p.out[f[1]], p.out[f[2]], p.out[f[3]]})
		for j, fj := range f {
			p.out[fj] = acc[j]
		}
	}
}

// fcGroup8 continues the chains of the convLanes neurons from first on,
// whose sums start at acc: the whole 8-input blocks on fcRows8, the inputs
// past the last block here.
func (x *peExec) fcGroup8(first int, acc []float32) {
	in, w := x.pass.cur, x.pass.st.w
	v := len(in)
	body := v &^ (convLanes - 1)
	fcRows8(&in[0], body/convLanes, &w[first*v], v, &acc[0])
	for j := range acc[:convLanes] {
		a := acc[j]
		for h, wv := range w[(first+j)*v+body : (first+j+1)*v] {
			a += wv * in[body+h]
		}
		acc[j] = a
	}
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
		a0 += A(w0[h]) * x
		a1 += A(w1[h]) * x
		a2 += A(w2[h]) * x
		a3 += A(w3[h]) * x
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
