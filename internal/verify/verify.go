// Package verify is Condor's pre-synthesis design verifier: a static
// analysis over the accelerator Spec (and optionally the IR it was built
// from and the weight set it will run with) that catches malformed designs
// before dataflow.Instantiate, simulation or packaging ever see them.
//
// The real toolflow the paper builds on relies on Vivado HLS/SDAccel
// elaboration errors as a late legality gate; the simulated substrate has no
// such gate, so a bad Spec would otherwise surface as a simulator panic, a
// deadlock or a silently mis-sized FIFO. Verify re-checks every structural
// invariant the flow depends on and reports violations as compiler-style
// diagnostics with stable rule IDs (the CND0xx catalogue in internal/diag):
//
//	CND001 shape-chain       layer out-shape must equal the successor's
//	                         in-shape, across fused layers and PE boundaries
//	                         (the paper's streaming composition).
//	CND002 shape-geometry    every recorded out-shape must satisfy the shape
//	                         equations (2)/(3) for the layer's geometry.
//	CND003 chain-missing     features-extraction PEs need a filter chain;
//	                         classifier PEs must not carry one.
//	CND004 chain-window      a chain must cover the largest window and the
//	                         widest padded input among its fused layers
//	                         (Section 3.2 fusion sizing).
//	CND005 chain-taps        the tap set must be the K² window accesses in
//	                         lexicographically-inverse order, with one FIFO
//	                         between each consecutive pair.
//	CND006 fifo-depth        each inter-filter FIFO must hold exactly the
//	                         reuse distance between its two accesses (Cong-
//	                         style non-uniform partitioning): undersized
//	                         FIFOs deadlock the pipeline, oversized ones
//	                         waste BRAM.
//	CND007 interpe-fifo      inter-PE streaming FIFOs need >= 1 slot.
//	CND008 weight-words      a weight entry must have exactly the word count
//	                         the layer geometry implies.
//	CND009 weight-missing    every conv/FC layer needs a weight entry.
//	CND010 bias-words        a bias entry must have one word per output map.
//	CND011 board-unknown     the deployment board must be in the catalogue.
//	CND012 freq-range        the requested clock must be positive and within
//	                         the platform maximum.
//	CND013 resource-budget   the estimated kernel must fit the board's
//	                         shell-excluded budget.
//	CND014 hls-array-limit   static weight arrays must stay within the HLS
//	                         front-end limit (the paper's "not synthesizable"
//	                         VGG-16 classifier gate).
//	CND015 parallelism       port parallelism must be >= 1 (error) and not
//	                         exceed the feature maps it serves (warning).
//	CND016 word-bits         the fabric word width must be 8 or 32.
//	CND017 empty-structure   the spec needs PEs and every PE needs layers.
//	CND018 stage-order       features extraction precedes classification.
//	CND019 ir-coverage       the spec must map the IR's compute layers in
//	                         order and start from the IR's input shape.
//	CND020 fifo-occupancy    every edge of the static FIFO network graph must
//	                         hold its worst-case occupancy under the verified
//	                         configuration (deadlock freedom by conservative
//	                         capacity bound over an acyclic schedule;
//	                         fabric.go).
//	CND021 cu-resource       the kernel replicated into the configured
//	                         compute units must fit the board's
//	                         shell-excluded budget (fabric.go).
//	CND022 fabric-config     the (CUs, burst) execution configuration must be
//	                         executable at all (fabric.go).
//	CND023 lane-packing      on the packed fabric (WordBits 8) the lane count
//	                         must divide every streamed-edge volume; an
//	                         indivisible edge falls back to zero-padded tail
//	                         lanes (warning), or is rejected when the spec
//	                         demands strict lane packing (error).
//	CND024 frame-interleave  two-epochs-in-flight occupancy must fit the FIFO
//	                         depths under batch streaming (fabric.go).
//	CND025 conv-algorithm    a conv layer's algorithm must be a known mode,
//	                         and winograd_f23 requires a 3x3/stride-1 layer
//	                         whose output tiles align (even height and width).
//	CND026 accumulator-range on the packed fabric (WordBits 8) a layer's
//	                         accumulation depth (C·K² of a convolution, the
//	                         input volume of an FC layer) times 128² must
//	                         stay below 2³¹: the MACs accumulate in int32
//	                         lanes, two to a 64-bit word, and a wrapped lane
//	                         corrupts its neighbour.
package verify

import (
	"condor/internal/board"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/diag"
	"condor/internal/hls"
	"condor/internal/nn"
)

// Diagnostic is the finding record of the verifier (shared with the dataflow
// layer through internal/diag).
type Diagnostic = diag.Diagnostic

// Verify runs every structural design rule over a spec. ir, when non-nil, is
// cross-checked against the spec (rule CND019); b, when nil, is resolved
// from spec.Board. The returned diagnostics are sorted errors-first; an
// empty slice means the design is clean.
func Verify(spec *dataflow.Spec, ir *condorir.Network, b *board.Board) []*Diagnostic {
	var ds []*Diagnostic
	report := func(d *Diagnostic) { ds = append(ds, d) }

	if spec == nil || len(spec.PEs) == 0 {
		report(diag.Errorf(diag.RuleEmptyStructure, "", "", "spec has no processing elements"))
		return ds
	}

	checkWordBits(spec, report)
	checkLanePacking(spec, report)
	checkConvAlgo(spec, report)
	checkAccumulatorRange(spec, report)
	if spec.InterPEFIFODepth < 1 {
		report(diag.Errorf(diag.RuleInterPEFIFO, "", "",
			"inter-PE FIFO depth %d < 1: blocking pushes would deadlock the fabric", spec.InterPEFIFODepth))
	}

	structureOK := true
	for _, pe := range spec.PEs {
		if len(pe.Layers) == 0 {
			report(diag.Errorf(diag.RuleEmptyStructure, pe.ID, "", "PE has no layers"))
			structureOK = false
		}
	}
	if structureOK {
		checkShapes(spec, report)
		checkStageOrder(spec, report)
		for _, pe := range spec.PEs {
			checkChain(pe, report)
			checkParallelism(pe, report)
		}
		if ir != nil {
			checkIRCoverage(spec, ir, report)
		}
	}

	checkBoard(spec, b, report)

	diag.Sort(ds)
	return ds
}

// VerifyWeights checks the weight set against the spec's layer geometry:
// the static form of the consistency checks Instantiate performs when
// binding weights (rules CND008/CND009/CND010).
func VerifyWeights(spec *dataflow.Spec, ws *condorir.WeightSet) []*Diagnostic {
	var ds []*Diagnostic
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			l := &pe.Layers[i]
			if l.Kind != nn.Conv && l.Kind != nn.FullyConnected {
				continue
			}
			we, ok := ws.Get(l.Name, condorir.EntryWeights)
			if !ok {
				ds = append(ds, diag.Errorf(diag.RuleWeightMissing, pe.ID, l.Name,
					"weights for layer %q not in weight set", l.Name))
				continue
			}
			if want := l.WeightWords(); len(we.Data) != want {
				ds = append(ds, diag.Errorf(diag.RuleWeightWords, pe.ID, l.Name,
					"weight entry has %d words, layer geometry needs %d", len(we.Data), want))
			}
			if be, ok := ws.Get(l.Name, condorir.EntryBias); ok && len(be.Data) != l.OutShape.Channels {
				ds = append(ds, diag.Errorf(diag.RuleBiasWords, pe.ID, l.Name,
					"bias entry has %d words, layer has %d output maps", len(be.Data), l.OutShape.Channels))
			}
		}
	}
	diag.Sort(ds)
	return ds
}

// Lint is the full pre-synthesis pass the `condor lint` subcommand and the
// build flow run: structural rules, IR cross-check, board feasibility and
// (when ws is non-nil) weight consistency.
func Lint(spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) []*Diagnostic {
	ds := Verify(spec, ir, nil)
	if ws != nil {
		ds = append(ds, VerifyWeights(spec, ws)...)
	}
	diag.Sort(ds)
	return ds
}

// checkWordBits enforces CND016.
func checkWordBits(spec *dataflow.Spec, report func(*Diagnostic)) {
	if spec.WordBits != 8 && spec.WordBits != 32 {
		report(diag.Errorf(diag.RuleWordBits, "", "",
			"fabric word width %d bits is not 8 or 32", spec.WordBits))
	}
}

// checkLanePacking enforces CND023: on the packed int8 fabric every streamed
// edge (the network input, every layer boundary — fused handoffs ride DDR as
// packed frames too) carries Spec.Lanes() activation lanes per word, so an
// edge volume the lane count does not divide leaves zero-padded tail lanes
// in its final word. The fabric handles the padding transparently, so the
// finding is a warning — bandwidth on that edge falls short of the full lane
// multiplier — unless the spec demands strict lane packing, in which case
// the misconfiguration is an error.
func checkLanePacking(spec *dataflow.Spec, report func(*Diagnostic)) {
	lanes := spec.Lanes()
	if lanes <= 1 {
		return
	}
	sev := diag.Warning
	verdict := "the tail word of every frame carries padded lanes"
	if spec.StrictLanes {
		sev = diag.Error
		verdict = "strict lane packing rejects the padded-tail fallback"
	}
	if vol := spec.Input.Volume(); vol%lanes != 0 {
		report(diag.New(diag.RuleLanePacking, sev, "", "",
			"input volume %d is not a multiple of the %d packed lanes: %s", vol, lanes, verdict))
	}
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			l := &pe.Layers[i]
			if vol := l.OutShape.Volume(); vol%lanes != 0 {
				report(diag.New(diag.RuleLanePacking, sev, pe.ID, l.Name,
					"streamed output volume %d is not a multiple of the %d packed lanes: %s", vol, lanes, verdict))
			}
		}
	}
}

// checkConvAlgo enforces CND025: every conv layer's algorithm must be one of
// the known modes, and the winograd_f23 mode is only legal on layers its
// F(2,3) tiling can cover — 3x3 kernel, stride 1, and an output whose height
// and width are even (each transform-domain tile produces a 2x2 output
// block, so an odd edge would leave uncovered pixels). Non-conv layers must
// not carry an algorithm at all.
func checkConvAlgo(spec *dataflow.Spec, report func(*Diagnostic)) {
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			l := &pe.Layers[i]
			switch l.ConvAlgo {
			case "", dataflow.AlgoDirect, dataflow.AlgoGEMM, dataflow.AlgoWinograd:
			default:
				report(diag.Errorf(diag.RuleConvAlgo, pe.ID, l.Name,
					"unknown convolution algorithm %q", l.ConvAlgo))
				continue
			}
			if l.Kind != nn.Conv {
				if l.ConvAlgo != "" {
					report(diag.Errorf(diag.RuleConvAlgo, pe.ID, l.Name,
						"algorithm %q set on non-convolution layer", l.ConvAlgo))
				}
				continue
			}
			if l.Algo() == dataflow.AlgoWinograd && !dataflow.WinogradOK(l.Kernel, l.Stride, l.OutShape) {
				report(diag.Errorf(diag.RuleConvAlgo, pe.ID, l.Name,
					"winograd_f23 requires a 3x3/stride-1 layer with even output tiles; layer has k=%d stride=%d out %dx%d",
					l.Kernel, l.Stride, l.OutShape.Height, l.OutShape.Width))
			}
		}
	}
}

// checkAccumulatorRange enforces CND026 on the packed int8 fabric; the bound
// itself lives beside the kernels it protects (dataflow.Int8AccumulatorRange).
func checkAccumulatorRange(spec *dataflow.Spec, report func(*Diagnostic)) {
	if spec.WordBits != 8 {
		return
	}
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			if d := dataflow.Int8AccumulatorRange(pe.ID, &pe.Layers[i]); d != nil {
				report(d)
			}
		}
	}
}

// checkShapes propagates shapes across every PE chain (CND001) and
// re-derives each layer's out-shape from its geometry (CND002).
func checkShapes(spec *dataflow.Spec, report func(*Diagnostic)) {
	cur := spec.Input
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			l := &pe.Layers[i]
			if l.InShape.Channels < 1 || l.InShape.Height < 1 || l.InShape.Width < 1 {
				report(diag.Errorf(diag.RuleShapeGeometry, pe.ID, l.Name,
					"non-positive in-shape %s", l.InShape))
			}
			if l.InShape != cur {
				report(diag.Errorf(diag.RuleShapeChain, pe.ID, l.Name,
					"in-shape %s does not match the upstream out-shape %s", l.InShape, cur))
			}
			skel := nn.Layer{
				Name: l.Name, Kind: l.Kind,
				Kernel: l.Kernel, Stride: l.Stride, Pad: l.Pad,
				OutputCount: l.OutShape.Channels,
			}
			want, err := skel.OutputShape(l.InShape)
			if err != nil {
				report(diag.Errorf(diag.RuleShapeGeometry, pe.ID, l.Name, "%v", err))
			} else if l.OutShape != want {
				report(diag.Errorf(diag.RuleShapeGeometry, pe.ID, l.Name,
					"recorded out-shape %s, geometry implies %s (shape equations (2)/(3))", l.OutShape, want))
			}
			cur = l.OutShape
		}
	}
}

// checkStageOrder enforces CND018: once a classifier PE appears, no
// features-extraction PE may follow (the paper's two-stage pipeline).
func checkStageOrder(spec *dataflow.Spec, report func(*Diagnostic)) {
	seenClassifier := false
	for _, pe := range spec.PEs {
		if pe.IsFeatureExtraction() {
			if seenClassifier {
				report(diag.Errorf(diag.RuleStageOrder, pe.ID, "",
					"features-extraction PE placed after a classification PE"))
			}
		} else {
			seenClassifier = true
		}
	}
}

// checkChain verifies the filter+FIFO memory subsystem of one PE: presence
// (CND003), fused sizing (CND004), tap ordering (CND005) and the
// reuse-distance FIFO depths (CND006).
func checkChain(pe *dataflow.PE, report func(*Diagnostic)) {
	if !pe.IsFeatureExtraction() {
		if pe.Chain != nil {
			report(diag.New(diag.RuleChainMissing, diag.Warning, pe.ID, "",
				"classification PE carries a filter chain it never reads"))
		}
		return
	}
	c := pe.Chain
	if c == nil {
		report(diag.Errorf(diag.RuleChainMissing, pe.ID, "",
			"features-extraction PE has no filter chain"))
		return
	}

	maxK, maxW := 0, 0
	for i := range pe.Layers {
		l := &pe.Layers[i]
		if !l.Kind.IsFeatureExtraction() {
			continue
		}
		if l.Kernel > maxK {
			maxK = l.Kernel
		}
		if l.PaddedWidth() > maxW {
			maxW = l.PaddedWidth()
		}
	}
	if c.Kernel < maxK {
		report(diag.Errorf(diag.RuleChainWindow, pe.ID, "",
			"chain window %d smaller than the largest fused layer window %d", c.Kernel, maxK))
	}
	if c.PaddedW < maxW {
		report(diag.Errorf(diag.RuleChainWindow, pe.ID, "",
			"chain padded width %d smaller than the widest fused padded input %d", c.PaddedW, maxW))
	}

	// Tap set: the K² accesses in lexicographically-inverse order, so the
	// chain head sees the most recent element of the window.
	wantTaps := c.Kernel * c.Kernel
	if len(c.Taps) != wantTaps {
		report(diag.Errorf(diag.RuleChainTaps, pe.ID, "",
			"chain has %d taps, window %d needs %d", len(c.Taps), c.Kernel, wantTaps))
		return // depth checks below index Taps positionally
	}
	ti := 0
	ordered := true
	for m := c.Kernel - 1; m >= 0 && ordered; m-- {
		for n := c.Kernel - 1; n >= 0 && ordered; n-- {
			if c.Taps[ti] != (dataflow.Tap{M: m, N: n}) {
				report(diag.Errorf(diag.RuleChainTaps, pe.ID, "",
					"tap %d is (%d,%d), lexicographically-inverse order requires (%d,%d)",
					ti, c.Taps[ti].M, c.Taps[ti].N, m, n))
				ordered = false
			}
			ti++
		}
	}
	if !ordered {
		return
	}
	if len(c.FIFODepths) != len(c.Taps)-1 {
		report(diag.Errorf(diag.RuleChainTaps, pe.ID, "",
			"chain has %d inter-filter FIFOs for %d taps, need %d",
			len(c.FIFODepths), len(c.Taps), len(c.Taps)-1))
		return
	}
	for i, d := range c.FIFODepths {
		want := c.Taps[i].Linear(c.PaddedW) - c.Taps[i+1].Linear(c.PaddedW)
		switch {
		case d < want:
			report(diag.Errorf(diag.RuleFIFODepth, pe.ID, "",
				"FIFO %d holds %d words, reuse distance between accesses (%d,%d) and (%d,%d) is %d: the pipeline deadlocks",
				i, d, c.Taps[i].M, c.Taps[i].N, c.Taps[i+1].M, c.Taps[i+1].N, want))
		case d > want:
			report(diag.New(diag.RuleFIFODepth, diag.Warning, pe.ID, "",
				"FIFO %d holds %d words, reuse distance is %d: %d words of BRAM are wasted",
				i, d, want, d-want))
		}
	}
}

// checkParallelism enforces CND015 on the PE's feature-map port counts.
func checkParallelism(pe *dataflow.PE, report func(*Diagnostic)) {
	if pe.Par.In < 1 || pe.Par.Out < 1 {
		report(diag.Errorf(diag.RuleParallelism, pe.ID, "",
			"port parallelism in=%d out=%d: both must be >= 1", pe.Par.In, pe.Par.Out))
		return
	}
	for i := range pe.Layers {
		l := &pe.Layers[i]
		if pe.Par.In > l.InShape.Channels {
			report(diag.New(diag.RuleParallelism, diag.Warning, pe.ID, l.Name,
				"in-parallelism %d exceeds the %d input maps: the extra ports are idle hardware",
				pe.Par.In, l.InShape.Channels))
		}
		if pe.Par.Out > l.OutShape.Channels {
			report(diag.New(diag.RuleParallelism, diag.Warning, pe.ID, l.Name,
				"out-parallelism %d exceeds the %d output maps: the extra ports are idle hardware",
				pe.Par.Out, l.OutShape.Channels))
		}
	}
}

// checkIRCoverage enforces CND019: the spec's flattened layer sequence must
// be exactly the IR's compute/pooling layers in order (activations and
// normalisations fold into the producing PE rather than appearing as
// layers), and the spec must start from the IR's declared input.
func checkIRCoverage(spec *dataflow.Spec, ir *condorir.Network, report func(*Diagnostic)) {
	irIn := nn.Shape{Channels: ir.Input.Channels, Height: ir.Input.Height, Width: ir.Input.Width}
	if spec.Input != irIn {
		report(diag.Errorf(diag.RuleIRCoverage, "", "",
			"spec input %s does not match the IR input %s", spec.Input, irIn))
	}

	var want []string
	for i := range ir.Layers {
		l := &ir.Layers[i]
		kind, err := l.Kind()
		if err != nil {
			report(diag.Errorf(diag.RuleIRCoverage, "", l.Name, "%v", err))
			return
		}
		if kind.IsActivation() || kind == nn.SoftMax || kind == nn.LogSoftMax {
			continue
		}
		want = append(want, l.Name)
	}
	var got []string
	peOf := make(map[string]string)
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			got = append(got, pe.Layers[i].Name)
			peOf[pe.Layers[i].Name] = pe.ID
		}
	}
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(got):
			report(diag.Errorf(diag.RuleIRCoverage, "", want[i],
				"IR layer %q is not mapped onto any PE", want[i]))
		case i >= len(want):
			report(diag.Errorf(diag.RuleIRCoverage, peOf[got[i]], got[i],
				"spec layer %q does not correspond to any IR compute layer", got[i]))
		case want[i] != got[i]:
			report(diag.Errorf(diag.RuleIRCoverage, peOf[got[i]], got[i],
				"spec maps layer %q where the IR orders %q", got[i], want[i]))
			return // one order slip cascades; a single diagnostic is clearer
		}
	}
}

// checkBoard resolves the deployment target and runs the feasibility rules:
// board existence (CND011), clock range (CND012), the HLS array limit
// (CND014) and the resource budget (CND013).
func checkBoard(spec *dataflow.Spec, b *board.Board, report func(*Diagnostic)) {
	if b == nil {
		var err error
		b, err = board.Lookup(spec.Board)
		if err != nil {
			report(diag.Errorf(diag.RuleBoardUnknown, "", "", "%v", err))
			return
		}
	}
	if spec.FreqMHz <= 0 {
		report(diag.Errorf(diag.RuleFreqRange, "", "",
			"requested clock %.0f MHz is not positive", spec.FreqMHz))
	} else if spec.FreqMHz > b.MaxClockMHz {
		report(diag.Errorf(diag.RuleFreqRange, "", "",
			"requested clock %.0f MHz exceeds the %s platform maximum %.0f MHz",
			spec.FreqMHz, b.ID, b.MaxClockMHz))
	}
	rep, err := hls.Estimate(spec)
	if err != nil {
		// The estimator rejects designs the HLS front end would reject; the
		// prime instance is the paper's FC weight-array limit.
		report(diag.Errorf(diag.RuleHLSArrayLimit, "", "", "%v", err))
		return
	}
	if !rep.Fits {
		u := rep.KernelTotal.Utilization(b.Available())
		report(diag.Errorf(diag.RuleResourceBudget, "", "",
			"kernel exceeds the %s budget: LUT %.0f%% FF %.0f%% DSP %.0f%% BRAM %.0f%% of the available fabric",
			b.ID, 100*u.LUT, 100*u.FF, 100*u.DSP, 100*u.BRAM))
	}
}
