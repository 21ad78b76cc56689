package verify

// This file is the whole-network half of the verifier: where verify.go
// checks each structural element in isolation, VerifyFabric constructs the
// static FIFO network graph of the accelerator — datamover, PEs and the
// stream FIFO between each adjacent pair — and proves, for one concrete
// execution configuration (port parallelism, compute-unit replication,
// burst size), that the design cannot deadlock and that the replicated
// hardware fits the board. The proof strategy is the fpgaConvNet-style SDF
// argument: the inter-element graph is acyclic by construction (a linear
// datamover → pe0 → … → peN → datamover chain), so blocking channels can
// only deadlock through a capacity violation on an edge — a producer whose
// worst-case in-flight occupancy exceeds the declared depth of the FIFO it
// writes. Bounding every edge's worst-case occupancy by its declared depth
// is therefore a sufficient static deadlock-freedom condition (conservative
// capacity bound), checked per edge so a violation names the exact FIFO.

import (
	"fmt"

	"condor/internal/board"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/diag"
	"condor/internal/hls"
)

// FabricConfig is one concrete execution configuration of a design: the
// knobs that exist outside the Spec (which carries the per-PE port
// parallelism) but change the fabric's runtime shape. The zero value is the
// default deployment: one compute unit, host-chunked bursts.
type FabricConfig struct {
	// CUs is the compute-unit replication factor: how many full copies of
	// the kernel the device instantiates (condor.DeployLocalCUs,
	// sdaccel.SetComputeUnits). 0 means 1.
	CUs int

	// BurstWords, when positive, is the DMA burst transaction length in
	// words on the inter-PE streaming FIFOs: a burst write completes only
	// once the consumer FIFO has that many free slots, so every stream FIFO
	// must hold at least one full burst. 0 models host-chunked bursts
	// (PushSlice splits transfers by free space), which impose no minimum
	// beyond one slot.
	BurstWords int

	// BatchStreaming declares the continuous-streaming deployment: batches
	// run through a resident session, so consecutive images pipeline
	// back-to-back and frames from two adjacent epochs interleave inside
	// the FIFOs. Enables the CND024 frame-interleaving capacity rule, which
	// bounds every edge's two-epochs-in-flight occupancy.
	BatchStreaming bool
}

func (c FabricConfig) normalized() FabricConfig {
	if c.CUs == 0 {
		c.CUs = 1
	}
	return c
}

// FIFOEdge is one edge of the static FIFO network graph: a FIFO, the two
// elements it connects, its declared depth and the worst-case occupancy the
// schedule can drive it to.
type FIFOEdge struct {
	// Name is the FIFO's fabric name (stream2, …), matching the names
	// RunStats reports at runtime.
	Name string
	// From and To are the producing and consuming elements.
	From, To string
	// Depth is the declared capacity in words.
	Depth int
	// WorstCase is the occupancy bound the configuration can reach with one
	// image in flight (drain-between-images execution).
	WorstCase int
	// InterleavedWorstCase is the occupancy bound with two adjacent epochs
	// in flight, the batch-streaming regime: the tail of image e is still
	// resident when the head of image e+1 (frame-control words included)
	// arrives. CND024 checks it when FabricConfig.BatchStreaming is set.
	InterleavedWorstCase int
}

// FabricEdges constructs the static FIFO network graph of spec under cfg:
// the datamover→PE→…→datamover stream FIFOs, in stream order. The FIFOs
// inside a PE's filter chain are not edges of this graph: their depths are
// the chain's reuse distances, fixed by NewFilterChain and checked per chain
// by the structural rules, and only the word oracle instantiates them.
func FabricEdges(spec *dataflow.Spec, cfg FabricConfig) []FIFOEdge {
	cfg = cfg.normalized()
	var edges []FIFOEdge

	// Inter-PE stream FIFOs, named as Instantiate names them: stream i
	// feeds PE i; the last one drains the final PE into the datamover.
	streamWorst := 1
	if cfg.BurstWords > 0 {
		streamWorst = cfg.BurstWords
	}
	// Under batch streaming two adjacent epochs share the FIFO: the last
	// burst of image e awaits drain while image e+1's first burst — behind
	// its frame-control words (epoch header, plus the scale word on the
	// packed datapath) — lands. Conservative bound: two full bursts plus
	// one frame's control words.
	streamInterleaved := 2*streamWorst + spec.FrameHeaderWords()
	for i := 0; i <= len(spec.PEs); i++ {
		from, to := "datamover", "datamover"
		if i > 0 {
			from = spec.PEs[i-1].ID
		}
		if i < len(spec.PEs) {
			to = spec.PEs[i].ID
		}
		edges = append(edges, FIFOEdge{
			Name:                 fmt.Sprintf("stream%d", i),
			From:                 from,
			To:                   to,
			Depth:                spec.InterPEFIFODepth,
			WorstCase:            streamWorst,
			InterleavedWorstCase: streamInterleaved,
		})
	}
	return edges
}

// VerifyFabric checks one execution configuration of a design: the
// configuration itself (CND022), the capacity bound of every FIFO network
// edge (CND020, plus the two-epochs-in-flight bound CND024 when
// cfg.BatchStreaming is set) and the replicated-CU resource totals
// (CND021). b, when nil, is resolved from spec.Board. Diagnostics are sorted errors-first; an
// empty slice proves the configuration deadlock-free under the conservative
// capacity bound and within the board budget.
func VerifyFabric(spec *dataflow.Spec, cfg FabricConfig, b *board.Board) []*Diagnostic {
	var ds []*Diagnostic
	report := func(d *Diagnostic) { ds = append(ds, d) }

	if spec == nil || len(spec.PEs) == 0 {
		report(diag.Errorf(diag.RuleEmptyStructure, "", "", "spec has no processing elements"))
		return ds
	}

	// CND022: the configuration must be executable at all.
	if cfg.CUs < 0 {
		report(diag.Errorf(diag.RuleFabricConfig, "", "",
			"compute-unit count %d is negative", cfg.CUs))
	}
	if cfg.BurstWords < 0 {
		report(diag.Errorf(diag.RuleFabricConfig, "", "",
			"burst size %d words is negative", cfg.BurstWords))
	}
	if diag.HasErrors(ds) {
		diag.Sort(ds)
		return ds
	}
	cfg = cfg.normalized()

	// CND020: every edge of the FIFO network must hold its worst-case
	// occupancy. The inter-element graph is a chain (acyclic), so this
	// capacity bound is sufficient for deadlock freedom.
	for _, e := range FabricEdges(spec, cfg) {
		if e.Depth <= 0 {
			continue // a non-positive depth is the structural pass's finding
		}
		if e.WorstCase > e.Depth {
			report(diag.Errorf(diag.RuleFIFOOccupancy, "", "",
				"FIFO %s (%s -> %s) holds %d words but the schedule drives it to %d: the fabric deadlocks",
				e.Name, e.From, e.To, e.Depth, e.WorstCase))
			continue // CND024 would only repeat the finding with a larger bound
		}
		// CND024: under batch streaming, two adjacent epochs share every FIFO
		// (the tail of image e drains while the head of image e+1 lands), so
		// the interleaved bound must fit too — a depth adequate for the
		// drain-between-images regime can still stall the resident pipeline.
		if cfg.BatchStreaming && e.InterleavedWorstCase > e.Depth {
			report(diag.Errorf(diag.RuleFrameInterleave, "", "",
				"FIFO %s (%s -> %s) holds %d words but two in-flight epochs drive it to %d: back-to-back streaming stalls the pipeline (deepen the FIFO or disable batch streaming)",
				e.Name, e.From, e.To, e.Depth, e.InterleavedWorstCase))
		}
	}

	// CND021: cfg.CUs full kernel replicas (each with its own datamover,
	// FIFOs and PEs — replicas share nothing but the DDR weight image) must
	// fit the board's shell-excluded budget together.
	if b == nil {
		var err error
		b, err = board.Lookup(spec.Board)
		if err != nil {
			report(diag.Errorf(diag.RuleBoardUnknown, "", "", "%v", err))
			diag.Sort(ds)
			return ds
		}
	}
	if rep, err := hls.Estimate(spec); err == nil {
		total := rep.KernelTotal.Scale(float64(cfg.CUs))
		if !total.FitsIn(b.Available()) {
			u := total.Utilization(b.Available())
			report(diag.Errorf(diag.RuleCUResource, "", "",
				"%d compute units exceed the %s budget: LUT %.0f%% FF %.0f%% DSP %.0f%% BRAM %.0f%% of the available fabric",
				cfg.CUs, b.ID, 100*u.LUT, 100*u.FF, 100*u.DSP, 100*u.BRAM))
		}
	}
	// An estimator error is CND014 territory; checkBoard reports it on the
	// Verify path, so it is not duplicated here.

	diag.Sort(ds)
	return ds
}

// LintConfig is Lint extended with the configuration-dependent fabric rules:
// the full pre-synthesis pass for one concrete (parallelism, CUs, burst)
// deployment of the design.
func LintConfig(spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet, cfg FabricConfig) []*Diagnostic {
	ds := Lint(spec, ir, ws)
	ds = append(ds, VerifyFabric(spec, cfg, nil)...)
	diag.Sort(ds)
	return ds
}
