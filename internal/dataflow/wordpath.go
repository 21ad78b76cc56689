package dataflow

import (
	"fmt"
	"math"

	"condor/internal/fifo"
	"condor/internal/nn"
)

// This file retains the original word-at-a-time PE executor: one FIFO
// operation per streamed word, exactly the granularity of the modeled
// hardware. Accelerator.RunWords drives it; the equivalence tests assert
// that a session (session.go, running the executor in pe.go) produces
// bit-identical outputs and the same datapath RunStats. It is an oracle, not
// a hot path — keep it simple and do not optimise it.

// peExecWords executes one PE over a batch of images, word by word.
type peExecWords struct {
	pe    *PE
	plan  *pePlan // read for its float weights only
	dm    *datamover
	in    *fifo.FIFO
	out   *fifo.FIFO
	stats *PEStats
}

// run processes batch images and closes the output FIFO. On error it drains
// the input stream so upstream PEs never block forever; the drain completes
// before run returns, so no goroutine outlives Accelerator.Run.
func (x *peExecWords) run(batch int) error {
	defer x.out.Close()
	for img := 0; img < batch; img++ {
		if err := x.runImage(); err != nil {
			x.in.Drain()
			return fmt.Errorf("dataflow: %s image %d: %w", x.pe.ID, img, err)
		}
		x.stats.Images++
	}
	return nil
}

// runImage pushes one image through the PE's fused layer sequence.
func (x *peExecWords) runImage() error {
	// cur holds the intermediate activations between fused layers; nil for
	// the first layer, whose input arrives over the input FIFO.
	var cur []float32
	for li := range x.pe.Layers {
		l := &x.pe.Layers[li]

		read, err := x.layerReader(l, cur)
		if err != nil {
			return err
		}
		var outBuf []float32
		last := li == len(x.pe.Layers)-1
		emit := func(v float32) {
			if last {
				x.out.Push(v)
				x.stats.ElemsOut++
			} else {
				outBuf = append(outBuf, v)
			}
		}

		switch l.Kind {
		case nn.Conv:
			err = x.runConv(l, x.weights(li), read, emit)
		case nn.MaxPool, nn.AvgPool:
			err = x.runPool(l, read, emit)
		case nn.FullyConnected:
			err = x.runFC(l, x.weights(li), read, emit)
		default:
			err = fmt.Errorf("layer %q: unsupported PE kind %v", l.Name, l.Kind)
		}
		if err != nil {
			return fmt.Errorf("layer %q: %w", l.Name, err)
		}
		// The oracle computes in float32 whatever the spec's word width, so
		// its cycles are the 32-bit schedule's.
		x.stats.Cycles += x.pe.Schedule(li, 32).Cycles()

		if !last {
			// Fused-layer handoff goes through the datamover (the paper's
			// partial-result exchange): the intermediate is written to DDR
			// and streamed back for the next layer's pass.
			bytes := 4 * int64(len(outBuf))
			x.dm.write(bytes)
			x.dm.read(bytes)
			cur = outBuf
			x.stats.Cycles += 2 * int64(len(outBuf))
		}
	}
	return nil
}

// weights returns layer li's weight stream and bias from the plan, accounting
// their DDR read unless the PE caches them on-chip (whose one-time load
// Instantiate accounted). The oracle computes in float32 whatever the spec's
// word width, so it reads a word per weight.
func (x *peExecWords) weights(li int) *layerState {
	st := &x.plan.layers[li]
	if !x.pe.WeightsOnChip {
		x.dm.read(int64(4 * (len(st.w) + len(st.b))))
	}
	return st
}

// layerReader returns the element source for a layer: the PE input FIFO for
// the first fused layer, or the buffered intermediate for the rest.
func (x *peExecWords) layerReader(l *LayerHW, cur []float32) (func() (fifo.Word, bool), error) {
	if cur == nil {
		return func() (fifo.Word, bool) {
			v, ok := x.in.Pop()
			if ok {
				x.stats.ElemsIn++
			}
			return v, ok
		}, nil
	}
	if len(cur) != l.InShape.Volume() {
		return nil, fmt.Errorf("fused intermediate has %d words, layer expects %d", len(cur), l.InShape.Volume())
	}
	i := 0
	return func() (fifo.Word, bool) {
		if i >= len(cur) {
			return 0, false
		}
		v := cur[i]
		i++
		return v, true
	}, nil
}

// runConv implements the convolutional PE schedule: input feature maps are
// processed sequentially (one filter-chain pass each); for every window
// position the K² taps are read once and reused across all output channels,
// accumulating into the partial-sum buffer; after the last input map the
// bias is added, the folded activation applied, and the output maps are
// emitted channel-major.
func (x *peExecWords) runConv(l *LayerHW, st *layerState, read func() (fifo.Word, bool), emit func(float32)) error {
	c, f, k := l.InShape.Channels, l.OutShape.Channels, l.Kernel
	outHW := l.OutShape.Height * l.OutShape.Width
	w, b := st.w, st.b
	partial := make([]float32, f*outHW)
	for ci := 0; ci < c; ci++ {
		if err := x.stencilPass(l, read, func(pos int, win []fifo.Word) {
			for fi := 0; fi < f; fi++ {
				base := (fi*c + ci) * k * k
				acc := partial[fi*outHW+pos]
				for t := 0; t < k*k; t++ {
					acc += float32(w[base+t] * win[t])
				}
				partial[fi*outHW+pos] = acc
			}
			x.stats.MACs += int64(f * k * k)
		}); err != nil {
			return err
		}
		if !x.pe.PartialsOnChip {
			x.dm.spill(int64(f * outHW))
			x.stats.SpilledPartial += int64(f * outHW)
		}
	}
	for fi := 0; fi < f; fi++ {
		var bias float32
		if len(b) > 0 {
			bias = b[fi]
		}
		for pos := 0; pos < outHW; pos++ {
			emit(applyActivation(l.Activation, partial[fi*outHW+pos]+bias))
		}
	}
	return nil
}

// runPool implements the sub-sampling PE: one filter-chain pass per channel,
// each window replaced by its maximum or average.
func (x *peExecWords) runPool(l *LayerHW, read func() (fifo.Word, bool), emit func(float32)) error {
	k := l.Kernel
	isMax := l.Kind == nn.MaxPool
	inv := 1 / float32(k*k)
	for ci := 0; ci < l.InShape.Channels; ci++ {
		if err := x.stencilPass(l, read, func(pos int, win []fifo.Word) {
			var v float32
			if isMax {
				v = float32(math.Inf(-1))
				for _, e := range win {
					if e > v {
						v = e
					}
				}
			} else {
				for _, e := range win {
					v += e
				}
				v *= inv
			}
			emit(applyActivation(l.Activation, v))
		}); err != nil {
			return err
		}
	}
	return nil
}

// stencilPass streams one input map through the PE's filter chain, invoking
// fn for every window in row-major output order.
func (x *peExecWords) stencilPass(l *LayerHW, read func() (fifo.Word, bool), fn func(pos int, win []fifo.Word)) error {
	src := fifo.New(x.pe.ID+"/pad", 64)
	padErr := make(chan error, 1)
	go func() {
		padErr <- streamPadded(read, l.InShape.Height, l.InShape.Width, l.Pad, src)
	}()
	run, err := x.pe.Chain.start(l, src)
	if err != nil {
		return err
	}
	wr, err := x.pe.Chain.newWindowReader(run, l.Kernel)
	if err != nil {
		return err
	}
	outHW := l.OutShape.Height * l.OutShape.Width
	for pos := 0; pos < outHW; pos++ {
		win, ok := wr.next()
		if !ok {
			run.wait()
			if err := <-padErr; err != nil {
				return err
			}
			return fmt.Errorf("filter chain delivered only %d of %d windows", pos, outHW)
		}
		fn(pos, win)
		x.stats.WindowsRead++
	}
	run.wait()
	return <-padErr
}

// runFC implements the fully-connected PE as a single-input/single-output
// 1x1 convolution: each streamed input element is multiplied against every
// output neuron's weight, accumulating in the on-chip partial vector; the
// optional normalisation (LogSoftMax/SoftMax) is applied before emission.
func (x *peExecWords) runFC(l *LayerHW, st *layerState, read func() (fifo.Word, bool), emit func(float32)) error {
	v := l.InShape.Volume()
	o := l.OutShape.Channels
	w, b := st.w, st.b
	partial := make([]float32, o)
	copy(partial, b)
	for h := 0; h < v; h++ {
		xv, ok := read()
		if !ok {
			return fmt.Errorf("input stream ended after %d of %d elements", h, v)
		}
		for oi := 0; oi < o; oi++ {
			partial[oi] += float32(w[oi*v+h] * xv)
		}
		x.stats.MACs += int64(o)
	}
	for i := range partial {
		partial[i] = applyActivation(l.Activation, partial[i])
	}
	if l.Normalize != NoActivation {
		normalizeInPlace(l.Normalize, partial)
	}
	for _, p := range partial {
		emit(p)
	}
	return nil
}
