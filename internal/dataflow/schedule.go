package dataflow

import "condor/internal/nn"

// Schedule is one layer lowered at its PE's port parallelism and the fabric
// word width: what the layer costs, written once. The cycle model
// (PE.CyclesPerImage), the synthesis estimate and memory planner
// (internal/hls), the traffic model (DDRBytesPerImage, OnChipLoadBytes), the
// per-layer algorithm table (internal/perf) and the executor's counters all
// read it; only ScheduleAs knows what a convolution algorithm or a word
// width changes. Lowering allocates nothing — the explorer lowers every
// layer of every candidate several times — and a Schedule is never stored in
// Spec, PE or LayerHW, whose JSON is the xclbin's fabric section.
//
// Where two models disagree the schedule carries each number as it is. An FC
// layer's MACLanes are its output ports, one MAC each, but its Compute term
// walks the input lanes-per-word inputs per cycle per port: on the packed
// int8 fabric the cycles assume four times the MACs that are priced. And the
// executor books the weight bytes of the stream it holds, not WeightWords:
// a layer without bias moves no bias words.
type Schedule struct {
	// MACLanes are the multiply-accumulate lanes the resource model prices:
	// per input/output port pair, K² for direct convolution, 2K² for
	// im2col_gemm (the dual-ported panel feeds two positions per cycle) and
	// 16 for winograd_f23 (one transformed tile); one per output port for an
	// FC layer.
	MACLanes int

	// Compute, Stream and Fill are the cycle terms: the layer is busy
	// max(Compute, Stream) + Fill cycles per image (Cycles). HandOff is the
	// fused-layer DDR round trip after it, one word per cycle each way, and
	// zero on the PE's last layer.
	Compute, Stream, Fill, HandOff int64

	// OutWords are the FIFO words of the layer's output volume.
	OutWords int64

	// PanelWords is the im2col panel (at the fabric word width) and
	// XformWords the Winograd transformed-weight store (at 32 bits): on-chip
	// scratch whatever the memory planner decides.
	PanelWords, XformWords int64

	// WeightWords are the weight words plus one bias word per output
	// channel; PartialWords the partial-sum buffer, at 32 bits.
	WeightWords, PartialWords int64

	// SpillWords are the partial sums a convolution exchanges with DDR per
	// image when its PE keeps partials off chip: every output cell once per
	// input channel, read and written back at 32 bits.
	SpillWords int64

	// DDRBytes is the layer's DDR traffic per image: the weight re-read when
	// weights stay off chip, the partial spill and the fused hand-off.
	// LoadBytes is the one-time configuration load of on-chip weights.
	DDRBytes, LoadBytes int64

	// Windows are the windows read per image (input channels × output
	// positions, or × 2×2 tiles under Winograd) and MACs the multiplies.
	Windows, MACs int64
}

// Cycles returns the layer's busy cycles per image, hand-off excluded.
func (s Schedule) Cycles() int64 { return max(s.Compute, s.Stream) + s.Fill }

// Schedule lowers layer i of the PE at the fabric word width bits
// (Spec.Bits).
func (pe *PE) Schedule(i, bits int) Schedule { return pe.ScheduleAs(i, bits, pe.Layers[i].Algo()) }

// ScheduleAs lowers layer i as if it convolved with algo (ignored on other
// layer kinds): the what-if the per-layer algorithm table prices.
//
// The iteration space is (input-channel group, output position, output-
// channel group) at II=1; a group's pass is bounded below by the stream
// traversal of the padded input map, one FIFO word per cycle through the
// filter chain, which dominates for sub-sampling layers. On the packed
// fabric a word carries several activations, so stream terms shrink by the
// lane count (ceil'd: a padded tail word still takes its cycle) and compute
// terms do not.
func (pe *PE) ScheduleAs(i, bits int, algo ConvAlgo) Schedule {
	l := &pe.Layers[i]
	par := pe.Par.Normalize()
	lanes, wordBytes := int64(lanesAt(bits)), int64(bits/8)
	c, f := int64(l.InShape.Channels), int64(l.OutShape.Channels)
	outHW := int64(l.OutShape.Height) * int64(l.OutShape.Width)
	groups, outGroups := ceilDiv64(c, int64(par.In)), ceilDiv64(f, int64(par.Out))
	pass := ceilDiv64(int64(l.PaddedHeight())*int64(l.PaddedWidth()), lanes)
	s := Schedule{OutWords: ceilDiv64(int64(l.OutShape.Volume()), lanes)}
	switch l.Kind {
	case nn.Conv:
		taps := int64(l.Kernel * l.Kernel)
		lanesPerPort, macsPerWindow := taps, taps
		s.Compute, s.Stream, s.Fill = groups*outHW*outGroups, groups*pass, chainFill(l)
		s.Windows = c * outHW
		switch algo {
		case AlgoGEMM:
			// The padded map is unrolled once into the on-chip panel (one
			// stream traversal in all, not one per input-channel group).
			lanesPerPort *= 2
			s.PanelWords = taps * outHW
			s.Compute, s.Stream, s.Fill = groups*ceilDiv64(outHW, 2)*outGroups, pass, hlsPipelineDepth
		case AlgoWinograd:
			// One 2×2 output tile per cycle per output-channel group: the
			// 16-lane element-wise stage retires a transformed tile a cycle,
			// gathered from the direct path's traversal; the extra fill is
			// the input and inverse transform pipelines.
			tiles := int64(l.OutShape.Height/2) * int64(l.OutShape.Width/2)
			lanesPerPort, macsPerWindow = 16, 16
			s.XformWords = f * c * 16
			s.Compute, s.Fill = groups*tiles*outGroups, s.Fill+winogradXformFill
			s.Windows = c * tiles
		}
		s.MACLanes = int(lanesPerPort) * par.In * par.Out
		s.MACs = s.Windows * f * macsPerWindow
		s.WeightWords, s.PartialWords = f*c*taps+f, f*outHW
		if !pe.PartialsOnChip {
			s.SpillWords = c * f * outHW
			s.DDRBytes += 2 * 4 * s.SpillWords
		}
	case nn.MaxPool, nn.AvgPool:
		s.Compute, s.Stream, s.Fill = groups*outHW, groups*pass, chainFill(l)
		s.Windows = c * outHW
	case nn.FullyConnected:
		// The single-input/single-output 1×1-convolution PE: every input
		// element meets each output-neuron group, lanes elements a cycle.
		v := int64(l.InShape.Volume())
		s.MACLanes = par.Out
		s.Compute, s.Fill = ceilDiv64(v, lanes)*outGroups, fcPipelineFill
		s.MACs = f * v
		s.WeightWords, s.PartialWords = f*v+f, f
	}
	if pe.WeightsOnChip {
		s.LoadBytes = s.WeightWords * wordBytes
	} else {
		s.DDRBytes += s.WeightWords * wordBytes
	}
	if i+1 < len(pe.Layers) {
		s.HandOff = 2 * s.OutWords
		s.DDRBytes += 2 * int64(l.OutShape.Volume()) * wordBytes
	}
	return s
}

// CyclesPerImage returns the PE's busy cycles per image at the fabric word
// width bits: its layers one after another, each fused hand-off included.
func (pe *PE) CyclesPerImage(bits int) int64 {
	var total int64
	for i := range pe.Layers {
		s := pe.Schedule(i, bits)
		total += s.Cycles() + s.HandOff
	}
	return total
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

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }
