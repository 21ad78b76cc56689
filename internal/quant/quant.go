// Package quant implements fixed-point quantization for Condor
// accelerators, the bandwidth/resource optimisation the paper's related
// work (Qiu et al., FPGA'16) applies: weights (and optionally activations)
// are quantized to 8-bit fixed point with per-tensor scaling, shrinking the
// datamover traffic, the on-chip weight buffers and the MAC datapath, with a
// measurable and typically negligible accuracy impact.
package quant

import (
	"fmt"
	"math"

	"condor/internal/condorir"
	"condor/internal/nn"
	"condor/internal/tensor"
)

// Precision selects the fabric numeric format.
type Precision int

const (
	Float32 Precision = iota
	Int8
)

// ParsePrecision resolves a precision name as the command lines spell it;
// the empty string is the float32 default.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float32":
		return Float32, nil
	case "int8":
		return Int8, nil
	default:
		return Float32, fmt.Errorf("unknown precision %q (float32 | int8)", s)
	}
}

// String names the precision.
func (p Precision) String() string {
	switch p {
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Bits returns the word width.
func (p Precision) Bits() int {
	if p == Int8 {
		return 8
	}
	return 32
}

// WordBytes returns the stream word size in bytes.
func (p Precision) WordBytes() int { return p.Bits() / 8 }

// levels returns the positive quantization range (2^(bits-1) − 1).
func (p Precision) levels() float64 {
	return float64(int64(1)<<(p.Bits()-1)) - 1
}

// EntryReport describes the quantization of one weight entry.
type EntryReport struct {
	Layer    string
	Kind     condorir.EntryKind
	Scale    float64 // dequantization step
	MaxError float64 // max |original − dequantized|
}

// Report summarises a weight-set quantization.
type Report struct {
	Precision Precision
	Entries   []EntryReport

	// MaxError is the largest per-value quantization error across entries.
	MaxError float64
	// BytesBefore/BytesAfter are the serialized weight payload sizes.
	BytesBefore int64
	BytesAfter  int64
}

// QuantizeValue rounds v to the fixed-point grid with the given scale. The
// grid is symmetric (±levels): clamping the negative side to −levels rather
// than the two's-complement −levels−1 keeps the code domain the exact mirror
// of the scale calibration, so quantize→dequantize never overshoots maxAbs
// and the int8 fabric's requantization points stay sign-symmetric.
func quantizeValue(v float32, scale float64, levels float64) float32 {
	if scale == 0 {
		return 0
	}
	q := math.Round(float64(v) / scale)
	if q > levels {
		q = levels
	}
	if q < -levels {
		q = -levels
	}
	return float32(q * scale)
}

// tensorScale computes the per-tensor scale: maxAbs / levels (symmetric
// linear quantization). A zero-range tensor (all zeros) gets scale 0, which
// quantizeValue/QuantizeInto treat as "emit zeros" — the zero-range guard.
func tensorScale(data []float32, levels float64) float64 {
	var maxAbs float64
	for _, v := range data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbsScale(maxAbs, levels)
}

func maxAbsScale(maxAbs, levels float64) float64 {
	if maxAbs == 0 {
		return 0
	}
	return maxAbs / levels
}

// MaxAbsScale is TensorScale without the scan: the scale of a tensor whose
// largest magnitude is maxAbs, for a producer that tracks it as it writes
// the values.
func MaxAbsScale(maxAbs float64, p Precision) float64 {
	return maxAbsScale(maxAbs, p.levels())
}

// TensorScale computes the symmetric max-abs per-tensor scale for the given
// precision: maxAbs/levels, or 0 for a zero-range tensor. The fabric's int8
// feeder and PEs use it to calibrate per-image activation scales.
func TensorScale(data []float32, p Precision) float64 {
	return tensorScale(data, p.levels())
}

// QuantizeInto quantizes src onto the symmetric int8 grid with the given
// scale, writing codes into dst (which must be at least len(src) long). A
// zero scale (zero-range tensor) emits all-zero codes. It allocates nothing,
// for the feeder/requantize hot path.
func QuantizeInto(dst []int8, src []float32, scale float64) {
	_ = dst[:len(src)]
	if scale == 0 {
		for i := range src {
			dst[i] = 0
		}
		return
	}
	inv := 1 / scale
	for i, v := range src {
		// Clamp in the float domain first (a float→int conversion out of
		// int range is implementation-dependent in Go), then round half away
		// from zero via the copysign trick — identical to math.Round on the
		// remaining range but cheap enough for the per-frame hot path, where
		// Round's branchy bit manipulation shows up in profiles.
		f := float64(v) * inv
		switch {
		case f > 126.5:
			dst[i] = 127
		case f < -126.5:
			dst[i] = -127
		default:
			dst[i] = int8(int32(f + math.Copysign(0.5, f)))
		}
	}
}

// DequantizeInto converts int8 codes back to float32 with the given scale,
// writing into dst (at least len(src) long). The collector and the PE
// boundary dequantization use it; it allocates nothing.
func DequantizeInto(dst []float32, src []int8, scale float64) {
	_ = dst[:len(src)]
	for i, q := range src {
		dst[i] = float32(float64(q) * scale)
	}
}

// QuantizeWeights produces a weight set whose values lie on the fixed-point
// grid of the chosen precision (stored dequantized, so the functional
// fabric runs unmodified), together with a quantization report.
func QuantizeWeights(ws *condorir.WeightSet, p Precision) (*condorir.WeightSet, *Report, error) {
	if p == Float32 {
		return nil, nil, fmt.Errorf("quant: float32 needs no quantization")
	}
	levels := p.levels()
	out := condorir.NewWeightSet()
	rep := &Report{Precision: p}
	for _, e := range ws.Entries() {
		scale := tensorScale(e.Data, levels)
		qdata := make([]float32, len(e.Data))
		var maxErr float64
		for i, v := range e.Data {
			qdata[i] = quantizeValue(v, scale, levels)
			if err := math.Abs(float64(v - qdata[i])); err > maxErr {
				maxErr = err
			}
		}
		out.PutRaw(e.Layer, e.Kind, append([]int(nil), e.Dims...), qdata)
		rep.Entries = append(rep.Entries, EntryReport{
			Layer: e.Layer, Kind: e.Kind, Scale: scale, MaxError: maxErr,
		})
		if maxErr > rep.MaxError {
			rep.MaxError = maxErr
		}
		rep.BytesBefore += int64(4 * len(e.Data))
		rep.BytesAfter += int64(p.WordBytes() * len(e.Data))
	}
	return out, rep, nil
}

// Drift summarises the output deviation between a float and a quantized
// network over a sample batch.
type Drift struct {
	Images        int
	MaxAbsDiff    float64
	Top1Agreement float64 // fraction of images whose argmax is unchanged
}

// EvaluateDrift runs both networks on the images and compares outputs — the
// accuracy-impact check that justifies quantization ("negligible impact on
// the resulting accuracy", as the related work reports).
func EvaluateDrift(ref, quantized *nn.Network, images []*tensor.Tensor) (Drift, error) {
	d := Drift{Images: len(images)}
	if len(images) == 0 {
		return d, fmt.Errorf("quant: no sample images")
	}
	agree := 0
	for _, img := range images {
		a, err := ref.Predict(img)
		if err != nil {
			return d, err
		}
		b, err := quantized.Predict(img)
		if err != nil {
			return d, err
		}
		if diff := tensor.MaxAbsDiff(a, b); diff > d.MaxAbsDiff {
			d.MaxAbsDiff = diff
		}
		if a.ArgMax() == b.ArgMax() {
			agree++
		}
	}
	d.Top1Agreement = float64(agree) / float64(len(images))
	return d, nil
}

// QuantizeActivations applies activation quantization to a tensor in place
// (per-tensor symmetric scaling), modelling the fabric's inter-layer word
// width. Exposed for activation-quantization studies.
func QuantizeActivations(t *tensor.Tensor, p Precision) {
	levels := p.levels()
	scale := tensorScale(t.Data(), levels)
	data := t.Data()
	for i, v := range data {
		data[i] = quantizeValue(v, scale, levels)
	}
}
