// Package hls stands in for Vivado HLS in the Condor flow: it consumes the
// structural accelerator specification and produces (a) synthesizable C
// sources for every PE and filter (the artifacts the real flow would feed
// to the tool), (b) per-block latency figures, and (c) analytic resource
// estimates (LUT/FF/DSP/BRAM) calibrated against the Xilinx floating-point
// operator characterisation tables. The paper's toolchain only consumes
// HLS's latency/resource reports, so an analytic model driven by the same
// specifications preserves every downstream decision (design-space
// exploration, memory planning, feasibility, timing closure).
package hls

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"condor/internal/board"
	"condor/internal/dataflow"
	"condor/internal/nn"
)

// maxHLSArrayWords is the largest static array the HLS front end accepts
// (2^24 elements). A fully-connected layer whose weight matrix exceeds this
// bound is not synthesizable with the current methodology — the constraint
// the paper reports for the VGG-16 classifier.
const maxHLSArrayWords = 1 << 24

// dspAdderClockMHz is the clock threshold below which the floating-point
// adder is instantiated in its DSP48-assisted (latency-optimised)
// configuration; above it the fmax-optimised fabric-logic configuration is
// used. This mirrors the Xilinx FP operator configuration space.
const dspAdderClockMHz = 120

// Component cost table: single-precision floating-point operators and
// fabric blocks, per instance.
var (
	costFMul    = board.Resources{LUT: 101, FF: 166, DSP: 3}
	costFAddDSP = board.Resources{LUT: 214, FF: 227, DSP: 2}
	costFAddLog = board.Resources{LUT: 390, FF: 496, DSP: 0}
	costFCmp    = board.Resources{LUT: 66, FF: 72}
	costFExp    = board.Resources{LUT: 1400, FF: 1706, DSP: 7}
	costFLog    = board.Resources{LUT: 1252, FF: 1504, DSP: 6}
	costFDiv    = board.Resources{LUT: 802, FF: 940}
	costFilter  = board.Resources{LUT: 132, FF: 168}

	costPEControlBase  = board.Resources{LUT: 820, FF: 1240}
	costPEControlLayer = board.Resources{LUT: 210, FF: 260} // per extra fused layer
	costDatamover      = board.Resources{LUT: 11800, FF: 17400, DSP: 16, BRAM: 16}
	costReLU           = board.Resources{LUT: 34, FF: 32}
)

// fadd returns the adder cost for the target clock.
func fadd(freqMHz float64) board.Resources {
	if freqMHz <= dspAdderClockMHz {
		return costFAddDSP
	}
	return costFAddLog
}

// costMACInt8 prices one int8 multiply-accumulate lane: two int8 MACs pack
// into one DSP48.
var costMACInt8 = board.Resources{LUT: 44, FF: 52, DSP: 0.5}

// macCost returns the cost of one multiply-accumulate lane for the fabric
// word width: an int8 lane, or a float32 multiplier plus the clock's adder.
func macCost(freqMHz float64, wordBits int) board.Resources {
	if wordBits == 8 {
		return costMACInt8
	}
	return costFMul.Add(fadd(freqMHz))
}

// bramForWords returns the BRAM36 blocks needed to hold n words of the
// given width, with BRAM18 (half-block) granularity.
func bramForWords(n int64, wordBits int) float64 {
	if n <= 0 {
		return 0
	}
	halves := math.Ceil(float64(n) * float64(wordBits) / 18432)
	return halves / 2
}

// fifoCost returns the cost of one stream FIFO of the given word depth and
// width: shallow FIFOs map to LUT shift registers (SRLs), deeper ones to
// BRAM.
func fifoCost(depth, wordBits int) board.Resources {
	if depth <= 64 {
		return board.Resources{LUT: float64(20 + depth/2), FF: 42}
	}
	return board.Resources{LUT: 54, FF: 60, BRAM: bramForWords(int64(depth), wordBits)}
}

// PEReport is the synthesis estimate for one PE (datapath + its memory
// subsystem). Its latency is the cycle model's (perf.Stages).
type PEReport struct {
	ID     string
	MACs   int
	Kernel board.Resources
}

// Breakdown splits a PE's estimate by component ("control", "conv-mac",
// "filters", ...); the parts sum to its PEReport.Kernel.
type Breakdown map[string]board.Resources

// PEBreakdown re-runs the cost terms of the spec's i-th PE and returns them
// by component. Estimate keeps only their sum, so pricing a design builds
// no map.
func PEBreakdown(spec *dataflow.Spec, i int) (Breakdown, error) {
	bd := Breakdown{}
	_, err := estimatePE(spec.PEs[i], spec.FreqMHz, spec.Bits(), bd)
	return bd, err
}

// Report is the synthesis estimate for a complete accelerator.
type Report struct {
	BoardID string
	PEs     []PEReport

	Datamover  board.Resources
	InterFIFOs board.Resources

	// KernelTotal is the accelerator without the platform shell; Total adds
	// the shell. Utilization is Total over the full device, the figure
	// Table 1 of the paper reports.
	KernelTotal board.Resources
	Total       board.Resources
	Utilization board.Utilization

	// Fits reports whether the kernel fits the board's available (shell-
	// excluded) budget.
	Fits bool

	// FmaxMHz is the post-route achievable clock from the timing-closure
	// model; AchievedMHz is min(requested, Fmax).
	FmaxMHz     float64
	AchievedMHz float64
}

// Estimate runs the full synthesis estimate for a spec on its board.
func Estimate(spec *dataflow.Spec) (*Report, error) {
	b, err := board.Lookup(spec.Board)
	if err != nil {
		return nil, err
	}
	bits := spec.Bits()
	rep := &Report{BoardID: b.ID, PEs: make([]PEReport, 0, len(spec.PEs))}
	kernel := costDatamover
	rep.Datamover = costDatamover

	// Inter-PE streaming FIFOs (one per boundary, incl. datamover ends).
	inter := fifoCost(spec.InterPEFIFODepth, bits).Scale(float64(len(spec.PEs) + 1))
	rep.InterFIFOs = inter
	kernel = kernel.Add(inter)

	for _, pe := range spec.PEs {
		pr, err := estimatePE(pe, spec.FreqMHz, bits, nil)
		if err != nil {
			return nil, err
		}
		rep.PEs = append(rep.PEs, pr)
		kernel = kernel.Add(pr.Kernel)
	}

	rep.KernelTotal = kernel
	rep.Total = kernel.Add(b.Shell)
	rep.Utilization = rep.Total.Utilization(b.Device)
	rep.Fits = kernel.FitsIn(b.Available())
	rep.FmaxMHz = fmaxModel(b, rep.Total.Utilization(b.Device))
	rep.AchievedMHz = math.Min(spec.FreqMHz, rep.FmaxMHz)
	return rep, nil
}

// estimatePE estimates one PE: datapath operators, filter-chain memory
// subsystem, on-chip weight and partial buffers, and control. A non-nil bd
// also receives every term by component.
func estimatePE(pe *dataflow.PE, freqMHz float64, wordBits int, bd Breakdown) (PEReport, error) {
	pr := PEReport{ID: pe.ID}
	add := func(name string, r board.Resources) {
		if bd != nil {
			bd[name] = bd[name].Add(r)
		}
		pr.Kernel = pr.Kernel.Add(r)
	}

	par := pe.Par.Normalize()
	ctrl := costPEControlBase
	if n := len(pe.Layers) - 1; n > 0 {
		ctrl = ctrl.Add(costPEControlLayer.Scale(float64(n)))
	}
	add("control", ctrl)

	maxK := 0
	hasMaxPool, hasAvgPool := false, false
	var act, norm nn.Kind = dataflow.NoActivation, dataflow.NoActivation
	for _, l := range pe.Layers {
		if w := int64(l.WeightWords()); l.Kind == nn.FullyConnected && w > maxHLSArrayWords {
			return pr, fmt.Errorf("hls: layer %q: fully-connected weight array of %d words exceeds the %d-word HLS limit; not synthesizable with the current methodology",
				l.Name, w, maxHLSArrayWords)
		}
		maxK = max(maxK, l.Kernel)
		hasMaxPool = hasMaxPool || l.Kind == nn.MaxPool
		hasAvgPool = hasAvgPool || l.Kind == nn.AvgPool
		if l.Activation != dataflow.NoActivation {
			act = l.Activation
		}
		if l.Normalize != dataflow.NoActivation {
			norm = l.Normalize
		}
	}

	// Datapath: the layer schedules' MAC lanes (multiplier + adder-tree slot
	// + accumulator), the bank sized by the most demanding fused layer.
	adder := fadd(freqMHz)
	mac := macCost(freqMHz, wordBits)
	f := foldSchedules(pe, wordBits)
	if f.convMACs > 0 {
		pr.MACs += f.convMACs
		add("conv-mac", mac.Scale(float64(f.convMACs)))
	}
	if f.panel > 0 {
		// im2col scratch panel, dual-ported; layers on one PE run
		// sequentially, so the largest panel is shared.
		add("im2col-bram", board.Resources{BRAM: bramForWords(f.panel, wordBits)})
	}
	if f.xform > 0 {
		// Transformed-weight cache (always resident, float32 like the
		// partials) plus the input/inverse tile-transform adder networks.
		add("winograd-weight-bram", board.Resources{BRAM: bramForWords(f.xform, 32)})
		add("winograd-xform", adder.Scale(float64(32*par.In+24*par.Out)))
	}
	if f.fcMACs > 0 {
		pr.MACs += f.fcMACs
		add("fc-mac", mac.Scale(float64(f.fcMACs)))
	}
	if hasMaxPool {
		add("pool-cmp", costFCmp.Scale(float64((maxK*maxK-1)*par.In)))
	}
	if hasAvgPool {
		add("pool-add", adder.Scale(float64((maxK*maxK-1)*par.In)))
		add("pool-scale", costFMul.Scale(float64(par.In)))
	}
	switch act {
	case nn.ReLU:
		add("act-relu", costReLU.Scale(float64(par.Out)))
	case nn.Sigmoid:
		add("act-sigmoid", costFExp.Add(costFDiv).Scale(float64(par.Out)))
	case nn.TanH:
		add("act-tanh", costFExp.Scale(2).Add(costFDiv).Scale(float64(par.Out)))
	}
	if norm != dataflow.NoActivation {
		// The LogSoftMax/SoftMax unit: exponential, accumulation, logarithm
		// (or divider), and the max-search comparator.
		add("norm", costFExp.Add(costFLog).Add(costFDiv).Add(costFCmp).Add(adder))
	}

	// Memory subsystem: one filter chain per parallel input port.
	if pe.Chain != nil {
		c := pe.Chain
		filters := costFilter.Scale(float64(len(c.Taps) * par.In))
		add("filters", filters)
		var chainFifos board.Resources
		for _, d := range c.FIFODepths {
			chainFifos = chainFifos.Add(fifoCost(d, wordBits))
		}
		// Tap FIFOs are shallow SRLs (depth = window side).
		chainFifos = chainFifos.Add(fifoCost(maxK, wordBits).Scale(float64(len(c.Taps))))
		add("chain-fifos", chainFifos.Scale(float64(par.In)))
	}

	if pe.WeightsOnChip {
		add("weight-bram", board.Resources{BRAM: bramForWords(f.weights, wordBits)})
	}
	if pe.PartialsOnChip {
		// Partial sums accumulate at full precision regardless of the
		// stream word width.
		add("partial-bram", board.Resources{BRAM: bramForWords(f.partials, 32)})
	}
	return pr, nil
}

// peFold is what a PE needs in hardware, folded from its layer schedules:
// the MAC banks of its largest convolution and FC layers, the largest im2col
// panel (fused layers run one at a time), every Winograd transformed-weight
// store, all its weights and its largest partial-sum buffer.
type peFold struct {
	convMACs, fcMACs                int
	panel, xform, weights, partials int64
}

func foldSchedules(pe *dataflow.PE, bits int) (f peFold) {
	for i := range pe.Layers {
		s := pe.Schedule(i, bits)
		switch pe.Layers[i].Kind {
		case nn.Conv:
			f.convMACs = max(f.convMACs, s.MACLanes)
		case nn.FullyConnected:
			f.fcMACs = max(f.fcMACs, s.MACLanes)
		}
		f.panel = max(f.panel, s.PanelWords)
		f.xform += s.XformWords
		f.weights += s.WeightWords
		f.partials = max(f.partials, s.PartialWords)
	}
	return f
}

// fmaxModel is the timing-closure model: routing congestion erodes the
// achievable kernel clock as device utilization grows.
func fmaxModel(b *board.Board, u board.Utilization) float64 {
	base := b.MaxClockMHz
	derate := 1 - 0.45*u.Max()
	if derate < 0.2 {
		derate = 0.2
	}
	return math.Round(base * derate)
}

// Sorted returns the component names in deterministic order.
func (b Breakdown) Sorted() []string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PlanMemory decides, for every PE in the spec, whether weights and partial
// sums live on-chip (BRAM) or are exchanged with the datamover — the
// memory-planning step of the core logic. Partial buffers are placed first
// (spilling partials costs a DDR round trip per input channel), then weight
// buffers smallest-first; everything must leave the filter chains, the
// inter-PE FIFOs and the datamover within the board's available BRAM.
func PlanMemory(spec *dataflow.Spec) error {
	b, err := board.Lookup(spec.Board)
	if err != nil {
		return err
	}
	bits := spec.Bits()
	budget := b.Available().BRAM

	// Fixed BRAM consumers.
	fixed := costDatamover.BRAM
	fixed += fifoCost(spec.InterPEFIFODepth, bits).BRAM * float64(len(spec.PEs)+1)
	type planned struct {
		pe *dataflow.PE
		peFold
	}
	order := make([]planned, len(spec.PEs))
	for i, pe := range spec.PEs {
		pe.WeightsOnChip = false
		pe.PartialsOnChip = false
		// The im2col panel and the Winograd transformed-weight store are
		// unconditionally resident.
		order[i] = planned{pe, foldSchedules(pe, bits)}
		fixed += bramForWords(order[i].panel, bits) + bramForWords(order[i].xform, 32)
		if pe.Chain == nil {
			continue
		}
		par := pe.Par.Normalize()
		var chainBRAM float64
		for _, d := range pe.Chain.FIFODepths {
			chainBRAM += fifoCost(d, bits).BRAM
		}
		fixed += chainBRAM * float64(par.In)
	}
	remaining := budget - fixed
	if remaining < 0 {
		return fmt.Errorf("hls: board %s cannot hold the fixed fabric BRAM (%.1f over budget)", b.ID, -remaining)
	}

	// Partials first, in PE order.
	for _, p := range order {
		need := bramForWords(p.partials, 32)
		if need <= remaining {
			p.pe.PartialsOnChip = true
			remaining -= need
		}
	}
	// Then weights, smallest first.
	slices.SortStableFunc(order, func(a, b planned) int { return cmp.Compare(a.weights, b.weights) })
	for _, p := range order {
		if p.weights == 0 {
			continue
		}
		need := bramForWords(p.weights, bits)
		if need <= remaining {
			p.pe.WeightsOnChip = true
			remaining -= need
		}
	}
	return nil
}
