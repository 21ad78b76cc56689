// Package condor is the public facade of the Condor framework
// (CONvolutional neural networks Dataflow Optimization using Reconfigurable
// hardware), a reproduction of "A Framework with Cloud Integration for CNN
// Acceleration on FPGA Devices" (Raspa, Natale, Bacis, Santambrogio —
// IPDPSW 2018).
//
// The framework is the paper's three-tier architecture:
//
//   - the frontend collects the network (a Caffe prototxt+caffemodel pair or
//     the Condor JSON representation plus external weights) and the
//     deployment option;
//   - the core logic maps the network onto the dataflow accelerator
//     template (PEs, filters, FIFOs), optionally runs design-space
//     exploration, and produces the packaged kernel (.xo → xclbin) together
//     with the synthesis and performance reports;
//   - the backend deploys the kernel either on a local board through the
//     SDAccel-like runtime or on AWS F1 through the S3→AFI→instance flow.
package condor

import (
	"fmt"
	"io"

	"condor/internal/bitstream"
	"condor/internal/board"
	"condor/internal/caffe"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/diag"
	"condor/internal/dse"
	"condor/internal/hls"
	"condor/internal/nn"
	"condor/internal/onnx"
	"condor/internal/perf"
	"condor/internal/power"
	"condor/internal/quant"
	"condor/internal/verify"
)

// Input is what the frontend tier collects.
type Input struct {
	// Caffe path: a prototxt network description and the trained
	// caffemodel bytes.
	Prototxt   string
	CaffeModel []byte

	// ONNX path: a binary ONNX model (the format the paper lists as a
	// planned frontend; supported here).
	ONNXModel []byte

	// Condor-native path: the internal JSON network representation and the
	// external weights file.
	NetworkJSON []byte
	WeightsFile io.Reader

	// Pre-parsed inputs (used by callers that already hold the IR).
	IR      *condorir.Network
	Weights *condorir.WeightSet

	// Deployment option.
	Board        string  // board id from the catalogue; defaults to the IR's
	FrequencyMHz float64 // requested kernel clock; defaults to the IR's

	// RunDSE enables the design-space exploration phase (the paper performs
	// it manually; Condor automates it).
	RunDSE bool

	// ComputeUnits is the kernel replication factor the build is verified
	// for (the CUs a later DeployLocalCUs will request). 0 means 1. The
	// fabric rules CND020–CND022 prove the configuration deadlock-free and
	// within the board budget before any packaging work.
	ComputeUnits int

	// Precision selects the fabric numeric format. The default Float32 is
	// the paper's configuration; Int8 enables the fixed-point quantization
	// of the related work (weights snapped to the fixed-point grid, the
	// packed int8 datapath, MAC lanes and buffers shrunk accordingly).
	Precision quant.Precision
}

// Build is the output of the core-logic tier: everything needed to deploy
// and run the accelerator.
type Build struct {
	IR      *condorir.Network
	Weights *condorir.WeightSet

	Spec   *dataflow.Spec
	Report *hls.Report

	XO     []byte
	Xclbin []byte
	Meta   bitstream.Metadata

	HostCode string

	// DSETrace records the exploration moves when RunDSE was set.
	DSETrace []dse.Move

	// QuantReport describes the weight quantization when a fixed-point
	// precision was selected (nil for float32).
	QuantReport *quant.Report
}

// Framework drives the three tiers.
type Framework struct {
	// Logf, when set, receives progress lines for each step of the design
	// automation flow.
	Logf func(format string, args ...any)
}

// New returns a framework with no logging.
func New() *Framework { return &Framework{} }

func (f *Framework) logf(format string, args ...any) {
	if f != nil && f.Logf != nil {
		f.Logf(format, args...)
	}
}

// Frontend runs the input-analysis step: it accepts either input method and
// produces the validated internal representation plus the weight set.
func (f *Framework) Frontend(in Input) (*condorir.Network, *condorir.WeightSet, error) {
	var ir *condorir.Network
	var ws *condorir.WeightSet
	switch {
	case in.IR != nil:
		ir, ws = in.IR, in.Weights
		if ws == nil {
			return nil, nil, fmt.Errorf("condor: pre-parsed input requires a weight set")
		}
	case in.Prototxt != "":
		f.logf("frontend: translating Caffe model to the Condor representation")
		topo, err := caffe.ParsePrototxt(in.Prototxt)
		if err != nil {
			return nil, nil, err
		}
		if len(in.CaffeModel) == 0 {
			return nil, nil, fmt.Errorf("condor: the Caffe input method requires the caffemodel bytes")
		}
		trained, err := caffe.ParseCaffeModel(in.CaffeModel)
		if err != nil {
			return nil, nil, err
		}
		topo.MergeWeights(trained)
		boardID := in.Board
		if boardID == "" {
			return nil, nil, fmt.Errorf("condor: the Caffe input method requires a deployment board")
		}
		if in.FrequencyMHz <= 0 {
			return nil, nil, fmt.Errorf("condor: the Caffe input method requires an operating frequency")
		}
		ir, ws, err = condorir.FromCaffe(topo, boardID, in.FrequencyMHz)
		if err != nil {
			return nil, nil, err
		}
	case len(in.ONNXModel) > 0:
		f.logf("frontend: translating ONNX model to the Condor representation")
		m, err := onnx.Parse(in.ONNXModel)
		if err != nil {
			return nil, nil, err
		}
		net, err := m.ToNetwork()
		if err != nil {
			return nil, nil, err
		}
		if net.Name == "" {
			net.Name = "onnx-model"
		}
		if in.Board == "" {
			return nil, nil, fmt.Errorf("condor: the ONNX input method requires a deployment board")
		}
		if in.FrequencyMHz <= 0 {
			return nil, nil, fmt.Errorf("condor: the ONNX input method requires an operating frequency")
		}
		ir, ws, err = condorir.FromNN(net, in.Board, in.FrequencyMHz)
		if err != nil {
			return nil, nil, err
		}
	case len(in.NetworkJSON) > 0:
		f.logf("frontend: parsing the Condor network representation")
		var err error
		ir, err = condorir.FromJSON(in.NetworkJSON)
		if err != nil {
			return nil, nil, err
		}
		if in.WeightsFile == nil {
			return nil, nil, fmt.Errorf("condor: the Condor input method requires the weights file")
		}
		ws, err = condorir.ReadWeights(in.WeightsFile)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("condor: no input provided (Caffe files, Condor JSON, or a pre-parsed IR)")
	}

	// Deployment overrides.
	if in.Board != "" {
		ir.Board = in.Board
	}
	if in.FrequencyMHz > 0 {
		ir.FrequencyMHz = in.FrequencyMHz
	}
	if _, err := board.Lookup(ir.Board); err != nil {
		return nil, nil, err
	}
	if err := ir.Validate(); err != nil {
		return nil, nil, err
	}
	// The weights must match the network geometry (this also catches
	// missing entries early, before any synthesis work).
	if _, err := ir.BuildNN(ws); err != nil {
		return nil, nil, err
	}
	return ir, ws, nil
}

// BuildAccelerator runs the full core-logic tier: layer creation, optional
// design-space exploration, memory planning, synthesis estimation, IP
// packaging and the XOCC compile.
func (f *Framework) BuildAccelerator(in Input) (*Build, error) {
	ir, ws, err := f.Frontend(in)
	if err != nil {
		return nil, err
	}
	b := &Build{IR: ir, Weights: ws}

	if in.Precision != quant.Float32 {
		f.logf("core: quantizing weights to %s", in.Precision)
		qws, qrep, err := quant.QuantizeWeights(ws, in.Precision)
		if err != nil {
			return nil, err
		}
		b.Weights, b.QuantReport = qws, qrep
		ws = qws
		// Re-validate the quantized weights against the geometry.
		if _, err := ir.BuildNN(ws); err != nil {
			return nil, err
		}
	}

	if in.RunDSE {
		f.logf("core: design-space exploration")
		// The walk runs under the selected precision's resource and cycle
		// models, so int8 builds explore the parallelism headroom their
		// cheaper MACs and packed streams actually leave.
		res, err := dse.Explore(ir, dse.Options{Precisions: []quant.Precision{in.Precision}})
		if err != nil {
			return nil, err
		}
		b.IR = res.IR
		b.DSETrace = res.Trace
		ir = res.IR
	}

	f.logf("core: creating layers and assembling the accelerator")
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		return nil, err
	}
	spec.WordBits = in.Precision.Bits()
	f.logf("core: planning on-chip memory")
	if err := hls.PlanMemory(spec); err != nil {
		return nil, err
	}
	b.Spec = spec

	// Pre-synthesis design verification: the static stand-in for the
	// elaboration gate of the real HLS/SDAccel flow. Warnings are reported
	// and the build proceeds; errors abort before any packaging work. The
	// configuration-dependent fabric rules run for the deployment this
	// build targets (ComputeUnits replicas).
	f.logf("core: verifying the design against the CND rule catalogue")
	diags := verify.LintConfig(spec, ir, ws, verify.FabricConfig{CUs: in.ComputeUnits})
	for _, d := range diags {
		if d.Severity == diag.Warning {
			f.logf("verify: %s", d)
		}
	}
	if err := diag.Err(diags); err != nil {
		return nil, fmt.Errorf("condor: design verification failed: %w", err)
	}

	f.logf("core: packaging the accelerator IP (.xo)")
	b.XO, err = bitstream.PackageXO(spec)
	if err != nil {
		return nil, err
	}
	f.logf("backend: compiling with XOCC for %s", ir.Board)
	var x *bitstream.Xclbin
	b.Xclbin, x, b.Report, err = bitstream.Compile(b.XO, ir.Board)
	if err != nil {
		return nil, err
	}
	b.Meta = x.Meta
	b.HostCode = x.Host
	f.logf("backend: achieved %.0f MHz (requested %.0f), LUT %.1f%% FF %.1f%% DSP %.1f%% BRAM %.1f%%",
		b.Meta.AchievedMHz, b.Meta.RequestedMHz,
		100*b.Report.Utilization.LUT, 100*b.Report.Utilization.FF,
		100*b.Report.Utilization.DSP, 100*b.Report.Utilization.BRAM)
	return b, nil
}

// LintOptions parameterizes the standalone verifier: the execution
// configuration to prove (compute units, burst size) and hand-built FIFO
// depth overrides, so a proposed deployment can be checked — and rejected —
// without touching the network description.
type LintOptions struct {
	// ComputeUnits and BurstWords form the FabricConfig the CND020–CND022
	// rules verify (0 = the defaults: one CU, host-chunked bursts).
	ComputeUnits int
	BurstWords   int

	// BatchStreaming declares the continuous-streaming deployment (resident
	// sessions, back-to-back images) and enables the CND024 two-epochs-in-
	// flight capacity rule on every FIFO edge.
	BatchStreaming bool

	// InterPEFIFODepth, when positive, overrides the depth of the streaming
	// FIFOs between PEs.
	InterPEFIFODepth int

	// Precision selects the fabric numeric format the configuration is
	// verified for (the -precision/-dtype the deployment will run). Int8
	// enables the packed-lane rule CND023.
	Precision quant.Precision

	// StrictLanes escalates CND023 from warning to error: streamed-edge
	// volumes the packed lane count does not divide are rejected instead of
	// falling back to zero-padded tail lanes.
	StrictLanes bool

	// Algo, when non-empty, overrides the convolution algorithm of every
	// conv layer before verification ("direct", "im2col_gemm",
	// "winograd_f23"), so a proposed per-layer-algorithm deployment can be
	// checked — and rejected by CND025 — without editing the network.
	Algo string
}

// Lint runs the pre-synthesis design verifier standalone: the IR is mapped
// onto the accelerator template and memory-planned exactly as a build would,
// then every CND design rule is checked. ws may be nil when no weights are
// available (topology-only networks like the VGG-16 IR); the weight
// consistency rules are skipped in that case. The returned diagnostics are
// sorted errors-first; building stops here, nothing is packaged.
func (f *Framework) Lint(ir *condorir.Network, ws *condorir.WeightSet) ([]*verify.Diagnostic, error) {
	return f.LintWith(ir, ws, LintOptions{})
}

// LintWith is Lint for one concrete deployment configuration: the spec is
// assembled, the option overrides are applied, and the full rule catalogue —
// structural, weight, board and the configuration-dependent fabric rules —
// runs over the result.
func (f *Framework) LintWith(ir *condorir.Network, ws *condorir.WeightSet, opts LintOptions) ([]*verify.Diagnostic, error) {
	if err := ir.Validate(); err != nil {
		return nil, err
	}
	f.logf("lint: assembling the accelerator spec for %s", ir.Name)
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		return nil, err
	}
	spec.WordBits = opts.Precision.Bits()
	spec.StrictLanes = opts.StrictLanes
	if opts.Algo != "" {
		algo, err := dataflow.ParseConvAlgo(opts.Algo)
		if err != nil {
			return nil, err
		}
		for _, pe := range spec.PEs {
			for i := range pe.Layers {
				if pe.Layers[i].Kind == nn.Conv {
					pe.Layers[i].ConvAlgo = algo
				}
			}
		}
	}
	if opts.InterPEFIFODepth > 0 {
		spec.InterPEFIFODepth = opts.InterPEFIFODepth
	}
	if err := hls.PlanMemory(spec); err != nil {
		return nil, err
	}
	f.logf("lint: verifying %d PEs against the CND rule catalogue", len(spec.PEs))
	cfg := verify.FabricConfig{CUs: opts.ComputeUnits, BurstWords: opts.BurstWords, BatchStreaming: opts.BatchStreaming}
	return verify.LintConfig(spec, ir, ws, cfg), nil
}

// PerformanceSummary is the evaluation view of a build: the quantities the
// paper's Table 1 reports.
type PerformanceSummary struct {
	BottleneckCycles int64
	GFLOPS           float64
	PowerW           float64
	GFLOPSPerWatt    float64
	LatencyMs        float64
}

// Performance evaluates the build with the cycle-level pipeline model and
// the power model.
func (b *Build) Performance() (PerformanceSummary, error) {
	net, err := b.IR.BuildNN(b.Weights)
	if err != nil {
		return PerformanceSummary{}, err
	}
	stages := perf.Stages(b.Spec)
	bott := perf.Bottleneck(stages)
	gflops := perf.SteadyStateGFLOPS(net.TotalFLOPs(), bott, b.Meta.AchievedMHz)
	p := power.Model(b.Report.Total, b.Meta.AchievedMHz, gflops)
	return PerformanceSummary{
		BottleneckCycles: bott,
		GFLOPS:           gflops,
		PowerW:           p.TotalW(),
		GFLOPSPerWatt:    power.GFLOPSPerWatt(gflops, p),
		LatencyMs:        perf.CyclesToMs(perf.Latency(stages), b.Meta.AchievedMHz),
	}, nil
}

// BatchCurve evaluates the Figure 5 series for the build.
func (b *Build) BatchCurve(batches []int) ([]perf.BatchPoint, error) {
	return perf.BatchCurve(perf.Stages(b.Spec), b.Meta.AchievedMHz, batches)
}

// WeightsBytes serialises the build's weight set in the Condor external
// weights format (the file the datamover loads at runtime).
func (b *Build) WeightsBytes() ([]byte, error) { return b.Weights.Bytes() }
