// Package dse implements the design-space exploration phase of the Condor
// automation flow. The paper performs this step manually and lists its
// automation as future work; here it is implemented: starting from the
// sequential configuration, the explorer repeatedly relaxes the bottleneck
// PE's feature-map port parallelism (the paper's inter-layer parallelism)
// while the synthesis estimate still fits the target board, converging on
// the throughput-optimal configuration the resources allow.
package dse

import (
	"fmt"
	"slices"

	"condor/internal/board"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/hls"
	"condor/internal/nn"
	"condor/internal/perf"
	"condor/internal/quant"
)

// Options tunes the exploration.
type Options struct {
	// MaxIterations bounds the number of accepted moves (0 = default 64).
	MaxIterations int

	// FeaturesOnly restricts the objective to the features-extraction
	// sub-pipeline, the configuration of the paper's Table 2 experiment.
	FeaturesOnly bool

	// MaxPortParallelism caps the per-PE port counts (0 = default 64).
	MaxPortParallelism int

	// Precisions adds the fabric numeric format to the configuration space:
	// the parallelism walk runs once per listed precision under that
	// precision's HLS resource model (narrower words mean cheaper MACs and
	// smaller buffers, so more parallelism may fit) and lane-aware cycle
	// model (packed int8 shrinks the stream-bound stage times), and the best
	// overall configuration wins. Empty means float32 only — the legacy
	// parallelism-only exploration.
	Precisions []quant.Precision

	// Algorithms restricts the per-layer convolution algorithms the
	// explorer may assign (Winograd is additionally gated by the layer's
	// F(2,3) qualification). Empty means the full set — direct,
	// im2col_gemm, winograd_f23.
	Algorithms []dataflow.ConvAlgo
}

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 64
	}
	if o.MaxPortParallelism == 0 {
		o.MaxPortParallelism = 64
	}
	return o
}

// Result is the outcome of an exploration.
type Result struct {
	// IR is the input network with the chosen per-layer parallelism.
	IR *condorir.Network
	// Spec and Report describe the chosen configuration.
	Spec   *dataflow.Spec
	Report *hls.Report

	// BottleneckCycles is the steady-state initiation interval of the
	// objective pipeline (features-only when Options.FeaturesOnly).
	BottleneckCycles int64

	// Precision is the fabric numeric format of the chosen configuration
	// (Float32 unless Options.Precisions widened the space).
	Precision quant.Precision

	// Algorithms maps every convolution layer to its chosen algorithm. The
	// same choices are written back into IR.Layers[i].Algorithm, so saving
	// the result IR reproduces the configuration exactly.
	Algorithms map[string]string

	// Trace records the accepted moves for inspection.
	Trace []Move
}

// Move is one accepted exploration step: a parallelism increase (Algorithm
// empty) or a convolution-algorithm switch.
type Move struct {
	Layer       string
	Parallelism condorir.Parallelism
	Algorithm   string
	Bottleneck  int64
}

// Explore searches for the fastest configuration of ir that fits its board.
// The input IR is not modified; the result carries a configured copy. With
// Options.Precisions set, each precision gets its own parallelism walk and
// the best-scoring configuration across precisions is returned.
func Explore(ir *condorir.Network, opts Options) (*Result, error) {
	precisions := opts.Precisions
	if len(precisions) == 0 {
		precisions = []quant.Precision{quant.Float32}
	}
	var best *Result
	var bestScore score
	var firstErr error
	for _, p := range precisions {
		res, sc, err := exploreAt(ir, opts, p)
		if err != nil {
			// A precision whose sequential configuration does not fit (or is
			// bandwidth-bound) drops out of the space; fail only when every
			// precision does.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || sc.betterThan(bestScore) {
			best, bestScore = res, sc
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// exploreAt runs the greedy parallelism walk at one fixed precision.
func exploreAt(ir *condorir.Network, opts Options, p quant.Precision) (*Result, score, error) {
	opts = opts.withDefaults()
	cur := cloneIR(ir)
	for i := range cur.Layers {
		cur.Layers[i].Parallelism = cur.Layers[i].Parallelism.Normalize()
	}
	spec, err := dataflow.BuildSpec(cur)
	if err != nil {
		return nil, score{}, err
	}
	w, err := newWalk(cur, opts, p)
	if err != nil {
		return nil, score{}, err
	}
	// The sequential configuration is the walk's one BuildSpec; every
	// candidate after it is priced on a copy (withMove).
	spec.WordBits = w.bits
	rep, sc, err := w.price(spec)
	if err != nil {
		return nil, score{}, err
	}
	if !rep.Fits {
		return nil, score{}, fmt.Errorf("dse: network %q does not fit board %q even in the sequential %s configuration", ir.Name, ir.Board, p)
	}
	res := &Result{IR: cur, Spec: spec, Report: rep, BottleneckCycles: sc.bottleneck, Precision: p}

	best := sc
	for iter := 0; iter < opts.MaxIterations; iter++ {
		improved := false
		// Candidate moves on every PE tied at the bottleneck. A move is
		// accepted when it lowers the bottleneck, or keeps it while lowering
		// the total stage time (which unsticks ties: halving one of several
		// equally-slow PEs is progress even before the global maximum moves).
		for _, mv := range w.candidateMoves(res) {
			spec := w.withMove(res.Spec, res.IR, mv)
			rep, sc, err := w.price(spec)
			if err != nil || !rep.Fits || !sc.betterThan(best) {
				continue
			}
			// The walk owns res.IR (a clone of the input), so the move is
			// written in place; the replaced spec takes the next candidate.
			mv.writeTo(res.IR)
			w.spare, res.Spec = res.Spec, spec
			res.Report, res.BottleneckCycles = rep, sc.bottleneck
			best = sc
			l := &res.IR.Layers[mv.layerIdx]
			res.Trace = append(res.Trace, Move{
				Layer:       l.Name,
				Parallelism: l.Parallelism.Normalize(),
				Algorithm:   string(mv.algo),
				Bottleneck:  sc.bottleneck,
			})
			improved = true
			break
		}
		if !improved {
			break
		}
	}
	res.Algorithms = chosenAlgorithms(res.Spec)
	return res, best, nil
}

// walk is one precision's walk: what every pricing shares and no move
// changes (the options, the word width, the board, the network's FLOPs and
// its layer shapes), and the buffers the walk reuses.
type walk struct {
	opts   Options
	bits   int
	algos  []dataflow.ConvAlgo
	board  *board.Board
	flops  int64
	shapes []nn.Shape
	moves  []move         // candidateMoves' buffer, reused across iterations
	spare  *dataflow.Spec // withMove's buffer: a spec no longer in use
}

// newWalk looks up, once, what every pricing of ir's walk at p shares.
func newWalk(ir *condorir.Network, opts Options, p quant.Precision) (*walk, error) {
	b, err := board.Lookup(ir.Board)
	if err != nil {
		return nil, err
	}
	flops, err := ir.FLOPs()
	if err != nil {
		return nil, err
	}
	shapes, err := ir.Shapes()
	if err != nil {
		return nil, err
	}
	return &walk{opts: opts, bits: p.Bits(), algos: allowedAlgos(opts), board: b, flops: flops, shapes: shapes}, nil
}

// price plans, estimates and scores a configuration. Configurations whose
// sustained throughput exceeds the DDR bandwidth roof are rejected — the
// datamover could not feed them, so their modeled throughput would never be
// reached on the device.
func (w *walk) price(spec *dataflow.Spec) (*hls.Report, score, error) {
	if err := hls.PlanMemory(spec); err != nil {
		return nil, score{}, err
	}
	rep, err := hls.Estimate(spec)
	if err != nil {
		return nil, score{}, err
	}
	lanes := 0
	for i := range rep.PEs {
		lanes += rep.PEs[i].MACs
	}
	r := perf.AnalyzeRoofline(spec, w.board, lanes, w.flops, rep.AchievedMHz)
	if r.BandwidthBound() {
		return nil, score{}, fmt.Errorf("dse: configuration is DDR-bandwidth bound (sustained %.1f GFLOPS over a %.1f GFLOPS roof)",
			r.SustainedGFLOPS, r.AttainableGFLOPS)
	}
	stages := objectiveStages(spec, w.opts)
	return rep, score{
		bottleneck: perf.Bottleneck(stages),
		total:      perf.Latency(stages),
	}, nil
}

// withMove returns the spec BuildSpec would make of ir with mv applied,
// without rebuilding it. A move changes one PE: a port move its Par, an
// algorithm move one layer's ConvAlgo; shapes, PE grouping, IDs, filter
// chains, the FIFO depth and the word width stay as they are. So the copy
// shares every filter chain and every unmoved PE's layers with cur, and
// copies the PE structs themselves only because PlanMemory rewrites each
// PE's weight and partial residency: the BRAM budget is shared, so a move on
// one PE can flip another's. Nothing writes the shared parts, so cur stays
// valid whether or not the move is accepted.
//
// The copy is written into the walk's spare spec: the last rejected
// candidate, or the spec the last accepted move replaced.
func (w *walk) withMove(cur *dataflow.Spec, ir *condorir.Network, mv move) *dataflow.Spec {
	if w.spare == nil {
		pes := make([]dataflow.PE, len(cur.PEs))
		w.spare = &dataflow.Spec{PEs: make([]*dataflow.PE, len(cur.PEs))}
		for i := range pes {
			w.spare.PEs[i] = &pes[i]
		}
	}
	spec, ptrs := w.spare, w.spare.PEs
	*spec = *cur
	spec.PEs = ptrs
	for i, pe := range cur.PEs {
		*ptrs[i] = *pe
	}
	pe := ptrs[mv.pe]
	if mv.algo != "" {
		pe.Layers = slices.Clone(pe.Layers)
		pe.Layers[mv.slot].ConvAlgo = mv.algo
		return spec
	}
	// BuildSpec's rule: the PE is built for the most demanding of its
	// compute layers.
	pe.Par = condorir.Parallelism{In: 1, Out: 1}
	for _, l := range pe.Layers {
		p := ir.Layers[l.Index].Parallelism.Normalize()
		if l.Index == mv.layerIdx {
			p = mv.par
		}
		pe.Par.In, pe.Par.Out = max(pe.Par.In, p.In), max(pe.Par.Out, p.Out)
	}
	return spec
}

// chosenAlgorithms collects the per-conv-layer algorithm of a configured
// spec, normalised ("" reads as direct).
func chosenAlgorithms(spec *dataflow.Spec) map[string]string {
	out := make(map[string]string)
	for _, pe := range spec.PEs {
		for _, l := range pe.Layers {
			if l.Kind == nn.Conv {
				out[l.Name] = string(l.Algo())
			}
		}
	}
	return out
}

// score orders configurations: primarily by the pipeline bottleneck, then
// by the total stage time (to make progress across tied bottlenecks).
type score struct {
	bottleneck int64
	total      int64
}

func (s score) betterThan(o score) bool {
	if s.bottleneck != o.bottleneck {
		return s.bottleneck < o.bottleneck
	}
	return s.total < o.total
}

type move struct {
	layerIdx int // the layer's index in the IR
	pe, slot int // its PE's index in the spec and its index in that PE's layers
	par      condorir.Parallelism
	algo     dataflow.ConvAlgo // non-empty: an algorithm switch, not a parallelism move
}

// writeTo writes the move into its layer of ir.
func (mv move) writeTo(ir *condorir.Network) {
	if mv.algo != "" {
		ir.Layers[mv.layerIdx].Algorithm = string(mv.algo)
	} else {
		ir.Layers[mv.layerIdx].Parallelism = mv.par
	}
}

// allowedAlgos resolves Options.Algorithms, defaulting to the full set.
func allowedAlgos(opts Options) []dataflow.ConvAlgo {
	if len(opts.Algorithms) > 0 {
		return opts.Algorithms
	}
	return []dataflow.ConvAlgo{dataflow.AlgoDirect, dataflow.AlgoGEMM, dataflow.AlgoWinograd}
}

// candidateMoves proposes moves for the layers of every PE tied at the
// current bottleneck: convolution-algorithm switches first (they cost
// bounded MAC lanes and scratch BRAM, versus the multiplicative cost of a
// port doubling), then output-port and input-port doublings. The returned
// slice is valid until the next call.
func (w *walk) candidateMoves(res *Result) []move {
	stages := objectiveStages(res.Spec, w.opts)
	worst := perf.Bottleneck(stages)
	out := w.moves[:0]
	// The stages list the objective's PEs in spec order.
	pi := 0
	for _, s := range stages {
		for res.Spec.PEs[pi].ID != s.Name {
			pi++
		}
		if s.Cycles != worst {
			continue
		}
		for slot, l := range res.Spec.PEs[pi].Layers {
			p := res.IR.Layers[l.Index].Parallelism.Normalize()
			if l.Kind == nn.Conv {
				for _, algo := range w.algos {
					if algo == l.Algo() {
						continue
					}
					if algo == dataflow.AlgoWinograd && !dataflow.WinogradOK(l.Kernel, l.Stride, l.OutShape) {
						continue
					}
					out = append(out, move{layerIdx: l.Index, pe: pi, slot: slot, algo: algo})
				}
			}
			outCap := min(w.opts.MaxPortParallelism, maxOutPorts(&l))
			inCap := min(w.opts.MaxPortParallelism, w.shapes[l.Index].Channels)
			if 2*p.Out <= outCap {
				out = append(out, move{layerIdx: l.Index, pe: pi, slot: slot, par: condorir.Parallelism{In: p.In, Out: 2 * p.Out}})
			}
			if 2*p.In <= inCap {
				out = append(out, move{layerIdx: l.Index, pe: pi, slot: slot, par: condorir.Parallelism{In: 2 * p.In, Out: p.Out}})
			}
		}
	}
	w.moves = out
	return out
}

// maxOutPorts bounds the useful output parallelism of a layer.
func maxOutPorts(l *dataflow.LayerHW) int {
	if n := l.OutShape.Channels; n > 0 {
		return n
	}
	return 1
}

func objectiveStages(spec *dataflow.Spec, opts Options) []perf.Stage {
	if opts.FeaturesOnly {
		return perf.FeatureStages(spec)
	}
	return perf.Stages(spec)
}

func cloneIR(ir *condorir.Network) *condorir.Network {
	out := *ir
	out.Layers = append([]condorir.Layer(nil), ir.Layers...)
	return &out
}
