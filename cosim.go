package condor

import (
	"fmt"
	"math"
	"math/rand"

	"condor/internal/dataflow"
	"condor/internal/nn"
	"condor/internal/tensor"
)

// CosimReport is the outcome of a co-simulation run: the fabric simulator
// executed against the golden reference engine on the same inputs — the
// equivalent of Vivado HLS's C/RTL co-simulation step, which the real flow
// would run before committing to a multi-hour synthesis.
type CosimReport struct {
	Images     int
	MaxAbsDiff float64
	Tolerance  float64
	// Mismatches counts images whose outputs exceeded the tolerance.
	Mismatches int
	// ArgMaxAgreement is the fraction of images with identical argmax.
	ArgMaxAgreement float64
	// ModelCycles is the modeled bottleneck interval; MeasuredCycles the
	// per-PE maximum measured by the functional simulator (they must agree).
	ModelCycles    int64
	MeasuredCycles int64
	// Stats carries the fabric run's full counters (per-PE cycles, DDR
	// traffic, FIFO occupancy) for observability dumps.
	Stats *dataflow.RunStats
}

// Passed reports whether the co-simulation met the tolerance on every image
// and the cycle model agreed with the measured fabric.
func (r CosimReport) Passed() bool {
	return r.Mismatches == 0 && r.ModelCycles == r.MeasuredCycles
}

// DefaultCosimTolerance is the automatic tolerance of a build the fabric
// does not compute exactly as the reference engine does: a winograd_f23
// layer rounds in its transform domain.
const DefaultCosimTolerance = 2e-3

// Cosim validates a build: n random inputs are pushed through the
// functional dataflow fabric and compared element-wise against the
// reference CNN engine, and the analytic cycle model is checked against the
// simulator's measured per-PE cycles. With the automatic tolerance
// (tolerance ≤ 0) a float32-datapath build with no winograd_f23 layer must
// equal the reference bit for bit — both accumulate every cell in the same
// order — a Winograd build gets DefaultCosimTolerance and an int8 build its
// run's QuantErrorBound.
func (b *Build) Cosim(n int, seed int64, tolerance float64) (CosimReport, error) {
	if n <= 0 {
		return CosimReport{}, fmt.Errorf("condor: cosim needs at least one image")
	}
	autoTol := tolerance <= 0
	exact := autoTol && b.Spec.WordBits != 8 && !hasWinograd(b.Spec)
	switch {
	case exact:
		tolerance = 0
	case autoTol:
		tolerance = DefaultCosimTolerance
	}
	rep := CosimReport{Images: n, Tolerance: tolerance}

	net, err := b.IR.BuildNN(b.Weights)
	if err != nil {
		return rep, err
	}
	acc, err := b.Fabric()
	if err != nil {
		return rep, err
	}
	rng := rand.New(rand.NewSource(seed))
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		img := tensor.New(b.Spec.Input.Channels, b.Spec.Input.Height, b.Spec.Input.Width)
		img.FillRandom(rng, 1)
		imgs[i] = img
	}
	outs, stats, err := acc.Run(imgs)
	if err != nil {
		return rep, err
	}
	rep.Stats = stats
	if autoTol && b.Spec.WordBits == 8 {
		// The packed int8 fabric is bounded-error, not bit-identical: widen
		// the default tolerance to the bound the run's recorded quantization
		// scales imply (never below the float reassociation allowance).
		if qb := stats.QuantErrorBound(); qb > tolerance {
			rep.Tolerance = qb
		}
	}
	if err := rep.compare(net, imgs, outs, exact); err != nil {
		return rep, err
	}

	// Cycle-model cross check: the analytic bottleneck must equal the
	// simulator's measured per-PE maximum.
	rep.MeasuredCycles = stats.BottleneckCycles()
	s, err := b.Performance()
	if err != nil {
		return rep, err
	}
	rep.ModelCycles = s.BottleneckCycles
	return rep, nil
}

// compare scores the fabric's outputs against the reference engine's on the
// same images: bit for bit when exact, else within rep.Tolerance.
func (rep *CosimReport) compare(net *nn.Network, imgs, outs []*tensor.Tensor, exact bool) error {
	agree := 0
	for i := range imgs {
		want, err := net.Predict(imgs[i])
		if err != nil {
			return err
		}
		d := tensor.MaxAbsDiff(outs[i], want)
		if d > rep.MaxAbsDiff {
			rep.MaxAbsDiff = d
		}
		if d > rep.Tolerance || exact && !sameBits(outs[i].Data(), want.Data()) {
			rep.Mismatches++
		}
		if outs[i].ArgMax() == want.ArgMax() {
			agree++
		}
	}
	rep.ArgMaxAgreement = float64(agree) / float64(len(imgs))
	return nil
}

// hasWinograd reports whether any layer of spec runs winograd_f23.
func hasWinograd(spec *dataflow.Spec) bool {
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			if pe.Layers[i].Algo() == dataflow.AlgoWinograd {
				return true
			}
		}
	}
	return false
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
