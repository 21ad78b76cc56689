// Package dataflow implements the paper's spatial accelerator: a distributed
// dataflow architecture of PEs (the layer computations), filters (the
// non-uniform memory partitioning of the stencil reuse buffer) and FIFOs
// (the communication channels), interfaced to on-board memory through a
// custom datamover. The package provides both the structural specification
// of an accelerator (consumed by the HLS, resource, performance and
// packaging layers) and a functional goroutine-per-element simulator whose
// outputs are validated bit-for-bit against the nn reference.
package dataflow

import (
	"fmt"

	"condor/internal/condorir"
	"condor/internal/nn"
)

// NoActivation marks the absence of a folded activation on a hardware layer.
const NoActivation nn.Kind = -1

// ConvAlgo selects the convolution algorithm a PE uses for one layer. The
// algorithms trade resources for cycles: direct is the paper's sliding
// window over the filter chain; im2col+GEMM lowers the window set into an
// on-chip panel feeding a register-tiled GEMM microkernel; Winograd F(2,3)
// computes 2×2 output tiles from 4×4 transformed input tiles, cutting the
// multiply count 2.25× on qualifying 3×3/stride-1 layers.
type ConvAlgo string

const (
	// AlgoDirect is the sliding-window convolution of the source paper.
	// The zero value ("") of LayerHW.ConvAlgo means direct as well.
	AlgoDirect ConvAlgo = "direct"
	// AlgoGEMM is the im2col+GEMM lowering: the padded input map is
	// unrolled once into a K²×(OH·OW) panel held in dual-ported BRAM, so
	// the MAC array streams two output positions per cycle instead of
	// waiting on the filter chain's one-window-per-cycle gather.
	AlgoGEMM ConvAlgo = "im2col_gemm"
	// AlgoWinograd is the Winograd F(2,3) transform-domain convolution,
	// valid only for 3×3/stride-1 layers whose output tiles align (even
	// output height and width). Weights are pre-transformed once, at
	// Instantiate, into the plan every compute unit reads.
	AlgoWinograd ConvAlgo = "winograd_f23"
)

// ParseConvAlgo maps an external algorithm string ("" = direct) onto the
// enum, rejecting unknown names.
func ParseConvAlgo(s string) (ConvAlgo, error) {
	switch ConvAlgo(s) {
	case "", AlgoDirect:
		return AlgoDirect, nil
	case AlgoGEMM:
		return AlgoGEMM, nil
	case AlgoWinograd:
		return AlgoWinograd, nil
	}
	return "", fmt.Errorf("dataflow: unknown conv algorithm %q (want %s, %s or %s)", s, AlgoDirect, AlgoGEMM, AlgoWinograd)
}

// WinogradOK reports whether a conv layer geometry qualifies for the
// F(2,3) fast algorithm: 3×3 kernel, unit stride, and an output tile grid
// that divides evenly into 2×2 tiles.
func WinogradOK(kernel, stride int, out nn.Shape) bool {
	return kernel == 3 && stride == 1 && out.Height%2 == 0 && out.Width%2 == 0
}

// LayerHW is one logical CNN layer as mapped onto hardware: geometry, the
// shapes it transforms, and the pointwise stages folded into its PE
// (activation and/or final normalisation).
type LayerHW struct {
	Index int // position in the IR layer list
	Name  string
	Kind  nn.Kind

	Kernel int
	Stride int
	Pad    int

	InShape  nn.Shape
	OutShape nn.Shape

	// Activation is the pointwise non-linearity folded into the PE output
	// stage (ReLU/Sigmoid/TanH), or NoActivation.
	Activation nn.Kind
	// Normalize is a folded LogSoftMax/SoftMax output stage, or NoActivation.
	Normalize nn.Kind

	// ConvAlgo selects the convolution algorithm for nn.Conv layers; the
	// zero value means AlgoDirect. Ignored on non-conv layers.
	ConvAlgo ConvAlgo
}

// Algo returns the layer's effective convolution algorithm, mapping the
// zero value to AlgoDirect.
func (l *LayerHW) Algo() ConvAlgo {
	if l.ConvAlgo == "" {
		return AlgoDirect
	}
	return l.ConvAlgo
}

// PaddedHeight returns the input height including zero padding, the extent
// the datamover streams into the filter pipeline.
func (l *LayerHW) PaddedHeight() int { return l.InShape.Height + 2*l.Pad }

// PaddedWidth returns the padded input width.
func (l *LayerHW) PaddedWidth() int { return l.InShape.Width + 2*l.Pad }

// WeightWords returns the number of weight words (excluding bias) the
// layer's geometry implies: the word count a weight-set entry must carry and
// the datamover streams per image when weights stay off-chip. Non-compute
// layers need none.
func (l *LayerHW) WeightWords() int {
	switch l.Kind {
	case nn.Conv:
		return l.OutShape.Channels * l.InShape.Channels * l.Kernel * l.Kernel
	case nn.FullyConnected:
		return l.OutShape.Channels * l.InShape.Volume()
	default:
		return 0
	}
}

// PE is one processing element of the accelerator together with its memory
// subsystem. A PE implements one or more logical layers (fused PEs iterate
// over their layers with an outer loop, per Section 3.2 of the paper).
type PE struct {
	ID     string
	Layers []LayerHW

	// Par carries the feature-map port parallelism: In input maps are read
	// concurrently (one filter chain each) and Out output maps are computed
	// in parallel.
	Par condorir.Parallelism

	// Chain is the filter/FIFO memory subsystem specification, present only
	// for features-extraction PEs. When layers are fused, the chain is sized
	// for the largest window and the largest padded input width among them,
	// as the paper prescribes.
	Chain *FilterChain

	// WeightsOnChip reports whether the PE's weights are cached in BRAM
	// (decided by the core logic against the board budget); otherwise the
	// datamover streams them per image.
	WeightsOnChip bool

	// PartialsOnChip reports whether the accumulation buffer for partial
	// results fits in on-chip memory; otherwise partials are exchanged with
	// the datamover (the paper's spill path).
	PartialsOnChip bool
}

// IsFeatureExtraction reports whether the PE belongs to the
// features-extraction stage.
func (pe *PE) IsFeatureExtraction() bool {
	return len(pe.Layers) > 0 && pe.Layers[0].Kind.IsFeatureExtraction()
}

// FilterChain describes the memory subsystem of one features-extraction PE
// input port: a pipeline of K² filters interleaved by K²−1 FIFOs,
// implementing the non-uniform partitioning of the reuse buffer (Cong et
// al., DAC'14). Filters are ordered in lexicographically inverse order of
// their window access (m,n); the FIFO between two consecutive filters holds
// exactly the spatial distance between the two accesses they represent.
type FilterChain struct {
	Kernel  int // largest window among fused layers
	PaddedW int // largest padded input width among fused layers

	// Taps lists the window accesses in pipeline order (lexicographically
	// inverse: the (K-1,K-1) access first).
	Taps []Tap

	// FIFODepths[i] is the depth in words of the FIFO between Taps[i] and
	// Taps[i+1] (len = len(Taps)-1).
	FIFODepths []int
}

// Tap is one window access point (m, n) of the sliding window.
type Tap struct{ M, N int }

// Linear returns the access's linear offset in the padded row-major stream.
func (t Tap) Linear(paddedW int) int { return t.M*paddedW + t.N }

// BufferWords returns the total on-chip buffering of the chain: the sum of
// all inter-filter FIFO depths, i.e. the spatial distance between the first
// and the last access — only the elements between the two extreme accesses
// are ever buffered on-chip, the key saving of non-uniform partitioning.
func (c *FilterChain) BufferWords() int {
	n := 0
	for _, d := range c.FIFODepths {
		n += d
	}
	return n
}

// NewFilterChain builds the chain geometry for window size k over a padded
// input width paddedW.
func NewFilterChain(k, paddedW int) (*FilterChain, error) {
	if k < 1 {
		return nil, fmt.Errorf("dataflow: window size %d < 1", k)
	}
	if paddedW < k {
		return nil, fmt.Errorf("dataflow: padded width %d smaller than window %d", paddedW, k)
	}
	c := &FilterChain{Kernel: k, PaddedW: paddedW}
	// Lexicographic order of accesses is (0,0),(0,1),…,(k-1,k-1); the
	// pipeline instantiates them in inverse order so the chain head sees the
	// most recent element of the window.
	for m := k - 1; m >= 0; m-- {
		for n := k - 1; n >= 0; n-- {
			c.Taps = append(c.Taps, Tap{M: m, N: n})
		}
	}
	for i := 0; i+1 < len(c.Taps); i++ {
		d := c.Taps[i].Linear(paddedW) - c.Taps[i+1].Linear(paddedW)
		if d <= 0 {
			return nil, fmt.Errorf("dataflow: non-positive FIFO depth %d between taps %v and %v", d, c.Taps[i], c.Taps[i+1])
		}
		c.FIFODepths = append(c.FIFODepths, d)
	}
	return c, nil
}

// Spec is the complete structural description of an accelerator instance:
// the output of the core-logic "network creation" step and the input of the
// HLS models, the packaging flow and the functional simulator.
type Spec struct {
	Name    string
	Board   string
	FreqMHz float64

	Input nn.Shape
	PEs   []*PE

	// InterPEFIFODepth is the depth of the streaming FIFOs between adjacent
	// PEs (and between the datamover and the boundary PEs).
	InterPEFIFODepth int

	// WordBits is the fabric numeric width: 32 (float32, the default), or 8
	// for the fixed-point quantized variant, which the functional simulator
	// executes natively on the packed int8 datapath (4 lanes per 32-bit FIFO
	// word, int32 accumulators, per-tensor requantization at PE boundaries).
	// WordBits also drives the resource, bandwidth and power models.
	WordBits int

	// StrictLanes escalates the CND023 lane-packing rule from a warning to
	// an error: streamed-edge volumes that the lane count does not divide
	// are rejected instead of falling back to zero-padded tail lanes.
	StrictLanes bool
}

// Bits returns the fabric word width: 8 on the fixed-point variant, 32
// (float32) otherwise. The cost models read WordBits only through it.
func (s *Spec) Bits() int {
	if s.WordBits == 8 {
		return 8
	}
	return 32
}

// Lanes returns the number of activation lanes packed into each 32-bit FIFO
// word: int8Lanes on the packed int8 datapath, 1 on the float32 one.
func (s *Spec) Lanes() int { return lanesAt(s.Bits()) }

// int8Lanes is the number of int8 lanes a 32-bit stream word carries on the
// packed datapath.
const int8Lanes = 4

func lanesAt(bits int) int {
	if bits == 8 {
		return int8Lanes
	}
	return 1
}

// packedWords returns the number of 32-bit stream words that carry n int8
// lanes (the tail word is zero-padded when int8Lanes does not divide n).
func packedWords(n int) int { return (n + int8Lanes - 1) / int8Lanes }

// FrameHeaderWords returns the control words that precede one image's
// payload on a stream edge of the modeled fabric: the epoch frame header,
// plus the per-image scale word of the packed int8 frame layout. The verifier's
// CND024 interleaving rule uses it to bound two-epochs-in-flight occupancy.
func (s *Spec) FrameHeaderWords() int {
	if s.Lanes() > 1 {
		return 2
	}
	return 1
}

// OutputShape returns the shape produced by the last PE.
func (s *Spec) OutputShape() nn.Shape {
	last := s.PEs[len(s.PEs)-1]
	return last.Layers[len(last.Layers)-1].OutShape
}

// NumLayers returns the number of logical layers mapped (including folded
// activations).
func (s *Spec) NumLayers() int {
	n := 0
	for _, pe := range s.PEs {
		n += len(pe.Layers)
		for _, l := range pe.Layers {
			if l.Activation != NoActivation {
				n++
			}
			if l.Normalize != NoActivation {
				n++
			}
		}
	}
	return n
}

// defaultInterPEFIFODepth is sized to hold a burst of output rows so
// adjacent PEs decouple; the resource model accounts for it.
const defaultInterPEFIFODepth = 512

// BuildSpec maps an IR network onto the accelerator template: resolves the
// layer→PE grouping, folds activations into their producing PE, sizes each
// features-extraction PE's filter chain (largest window / widest input among
// fused layers) and records the port parallelism.
func BuildSpec(ir *condorir.Network) (*Spec, error) {
	if err := ir.Validate(); err != nil {
		return nil, err
	}
	shapes, err := ir.Shapes()
	if err != nil {
		return nil, err
	}
	groups, err := ir.PEGroups()
	if err != nil {
		return nil, err
	}
	spec := &Spec{
		Name:    ir.Name,
		Board:   ir.Board,
		FreqMHz: ir.FrequencyMHz,
		Input:   shapes[0],

		InterPEFIFODepth: defaultInterPEFIFODepth,
		WordBits:         32,
	}
	for gi, group := range groups {
		pe := &PE{ID: fmt.Sprintf("pe%d", gi), Par: condorir.Parallelism{In: 1, Out: 1}}
		for _, li := range group {
			irl := &ir.Layers[li]
			kind, err := irl.Kind()
			if err != nil {
				return nil, err
			}
			switch {
			case kind.IsActivation():
				if len(pe.Layers) == 0 {
					return nil, fmt.Errorf("dataflow: activation %q has no preceding compute layer in its PE", irl.Name)
				}
				pe.Layers[len(pe.Layers)-1].Activation = kind
			case kind == nn.SoftMax || kind == nn.LogSoftMax:
				if len(pe.Layers) == 0 {
					return nil, fmt.Errorf("dataflow: normalisation %q has no preceding compute layer in its PE", irl.Name)
				}
				pe.Layers[len(pe.Layers)-1].Normalize = kind
			default:
				hw := LayerHW{
					Index:      li,
					Name:       irl.Name,
					Kind:       kind,
					Kernel:     irl.KernelSize,
					Stride:     max(irl.Stride, 1),
					Pad:        irl.Pad,
					InShape:    shapes[li],
					OutShape:   shapes[li+1],
					Activation: NoActivation,
					Normalize:  NoActivation,
				}
				if kind == nn.Conv {
					algo, err := ParseConvAlgo(irl.Algorithm)
					if err != nil {
						return nil, fmt.Errorf("dataflow: layer %q: %w", irl.Name, err)
					}
					hw.ConvAlgo = algo
				}
				pe.Layers = append(pe.Layers, hw)
				// The PE port parallelism is the maximum requested by its
				// layers (a fused PE is built once, for its most demanding
				// member).
				p := irl.Parallelism.Normalize()
				if p.In > pe.Par.In {
					pe.Par.In = p.In
				}
				if p.Out > pe.Par.Out {
					pe.Par.Out = p.Out
				}
			}
		}
		if len(pe.Layers) == 0 {
			return nil, fmt.Errorf("dataflow: PE group %d contains no compute layer", gi)
		}
		if pe.IsFeatureExtraction() {
			// Size the memory subsystem for the largest window and the
			// widest padded input among the fused layers (Section 3.2).
			maxK, maxW := 0, 0
			for _, l := range pe.Layers {
				if l.Kernel > maxK {
					maxK = l.Kernel
				}
				if l.PaddedWidth() > maxW {
					maxW = l.PaddedWidth()
				}
			}
			pe.Chain, err = NewFilterChain(maxK, maxW)
			if err != nil {
				return nil, fmt.Errorf("dataflow: PE %s: %w", pe.ID, err)
			}
		}
		spec.PEs = append(spec.PEs, pe)
	}
	return spec, nil
}
