package quant

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/tensor"
)

func TestQuantizeWeightsInt8(t *testing.T) {
	_, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	q, rep, err := QuantizeWeights(ws, Int8)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != ws.Len() {
		t.Fatalf("entry count %d vs %d", q.Len(), ws.Len())
	}
	if rep.Precision != Int8 || len(rep.Entries) != ws.Len() {
		t.Fatalf("report %+v", rep)
	}
	// Symmetric quantization errs by at most half a step per entry, plus the
	// half float32 ulp of the stored grid point (at most 2⁻²⁴ of maxAbs, which
	// is 127 steps).
	for _, e := range rep.Entries {
		if e.Scale == 0 || e.MaxError > e.Scale/2+127*e.Scale*0x1p-24 {
			t.Fatalf("%s/%v: max error %v against scale %v", e.Layer, e.Kind, e.MaxError, e.Scale)
		}
	}
	if rep.BytesAfter*4 != rep.BytesBefore {
		t.Fatalf("int8 should quarter the payload: %d -> %d", rep.BytesBefore, rep.BytesAfter)
	}
}

func TestQuantizeFloat32Rejected(t *testing.T) {
	ws := condorir.NewWeightSet()
	if _, _, err := QuantizeWeights(ws, Float32); err == nil {
		t.Fatal("float32 quantization should be rejected")
	}
}

func TestQuantizedNetworkDriftNegligible(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ir.BuildNN(ws)
	if err != nil {
		t.Fatal(err)
	}
	// Int8 weights drift, but predictions should still broadly agree (the
	// related work's "negligible accuracy impact" claim).
	q8, _, err := QuantizeWeights(ws, Int8)
	if err != nil {
		t.Fatal(err)
	}
	net8, err := ir.BuildNN(q8)
	if err != nil {
		t.Fatal(err)
	}
	imgs := models.MNISTImages(12, 4)
	d8, err := EvaluateDrift(ref, net8, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if d8.MaxAbsDiff == 0 || d8.MaxAbsDiff > 0.1 {
		t.Fatalf("int8 drift %v outside (0, 0.1]", d8.MaxAbsDiff)
	}
	if d8.Top1Agreement < 0.75 {
		t.Fatalf("int8 agreement %v implausibly low", d8.Top1Agreement)
	}
}

func TestEvaluateDriftNoImages(t *testing.T) {
	if _, err := EvaluateDrift(nil, nil, nil); err == nil {
		t.Fatal("expected no-images error")
	}
}

func TestQuantizeActivations(t *testing.T) {
	tt := tensor.FromSlice([]float32{0.5, -1, 0.25, 0}, 4)
	QuantizeActivations(tt, Int8)
	// Values must lie on the grid scale = 1/127.
	scale := 1.0 / 127
	for _, v := range tt.Data() {
		q := float64(v) / scale
		if math.Abs(q-math.Round(q)) > 1e-4 {
			t.Fatalf("value %v not on the int8 grid", v)
		}
	}
}

// ParsePrecision is the one parser of the command lines' precision names:
// the empty string is float32, and a name without a datapath is refused
// with the accepted spellings.
func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]Precision{"": Float32, "float32": Float32, "int8": Int8} {
		if got, err := ParsePrecision(s); err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"int16", "fp16", "INT8", " float32"} {
		_, err := ParsePrecision(s)
		if err == nil || !strings.Contains(err.Error(), "float32 | int8") {
			t.Errorf("ParsePrecision(%q) error %v, want one listing float32 | int8", s, err)
		}
	}
}

func TestPrecisionProperties(t *testing.T) {
	if Float32.Bits() != 32 || Int8.Bits() != 8 {
		t.Fatal("bit widths wrong")
	}
	if Float32.WordBytes() != 4 || Int8.WordBytes() != 1 {
		t.Fatal("word bytes wrong")
	}
	if Float32.String() != "float32" || Int8.String() != "int8" {
		t.Fatal("names wrong")
	}
}

// Property: quantization is idempotent — re-quantizing an already quantized
// tensor at the same precision changes nothing.
func TestQuantizationIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := condorir.NewWeightSet()
		tt := tensor.New(32)
		tt.FillRandom(rng, 2)
		ws.Put("l", condorir.EntryWeights, tt)
		q1, _, err := QuantizeWeights(ws, Int8)
		if err != nil {
			return false
		}
		q2, rep2, err := QuantizeWeights(q1, Int8)
		if err != nil {
			return false
		}
		if rep2.MaxError > 1e-6 {
			return false
		}
		a, _ := q1.Get("l", condorir.EntryWeights)
		b, _ := q2.Get("l", condorir.EntryWeights)
		for i := range a.Data {
			if math.Abs(float64(a.Data[i]-b.Data[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization error is bounded by half the scale step, plus the
// half ulp lost when the grid point is stored as a float32. No grid point
// exceeds maxAbs, so the ulp at maxAbs bounds every value's.
func TestQuantizationErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := condorir.NewWeightSet()
		tt := tensor.New(64)
		tt.FillRandom(rng, 3)
		ws.Put("l", condorir.EntryWeights, tt)
		var maxAbs float32
		for _, v := range tt.Data() {
			maxAbs = max(maxAbs, float32(math.Abs(float64(v))))
		}
		halfUlp := float64(math.Nextafter32(maxAbs, math.MaxFloat32)-maxAbs) / 2
		_, rep, err := QuantizeWeights(ws, Int8)
		if err != nil {
			return false
		}
		for _, e := range rep.Entries {
			if e.MaxError > e.Scale/2+halfUlp+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The exported slice variants back the packed fabric's hot path: quantize
// and dequantize must round-trip within scale/2, clamp symmetrically at
// ±127 (never the two's-complement −128, which would overshoot the scale
// calibration), and treat a zero-range tensor as all-zero codes.
func TestQuantizeIntoRoundTrip(t *testing.T) {
	src := []float32{0.5, -1, 0.25, 0, 1, -0.999, 1e-9}
	scale := TensorScale(src, Int8)
	if want := 1.0 / 127; math.Abs(scale-want) > 1e-12 {
		t.Fatalf("scale %v, want %v", scale, want)
	}
	codes := make([]int8, len(src))
	QuantizeInto(codes, src, scale)
	back := make([]float32, len(src))
	DequantizeInto(back, codes, scale)
	for i := range src {
		if err := math.Abs(float64(src[i] - back[i])); err > scale/2+1e-9 {
			t.Errorf("value %v: round-trip error %v exceeds scale/2", src[i], err)
		}
	}
}

func TestQuantizeIntoSymmetricClamp(t *testing.T) {
	// With a scale calibrated on 1.0, out-of-range values clamp to ±127 —
	// the negative extreme must not reach −128.
	scale := TensorScale([]float32{1}, Int8)
	codes := make([]int8, 4)
	QuantizeInto(codes, []float32{5, -5, 1, -1}, scale)
	if codes[0] != 127 || codes[1] != -127 {
		t.Fatalf("clamp codes %v, want ±127", codes[:2])
	}
	if codes[2] != 127 || codes[3] != -127 {
		t.Fatalf("extremes %v, want ±127", codes[2:])
	}
}

func TestQuantizeIntoZeroRangeGuard(t *testing.T) {
	if s := TensorScale([]float32{0, 0, 0}, Int8); s != 0 {
		t.Fatalf("zero-range scale %v, want 0", s)
	}
	codes := []int8{9, 9, 9}
	QuantizeInto(codes, []float32{0, 0, 0}, 0)
	for _, c := range codes {
		if c != 0 {
			t.Fatalf("zero-scale codes %v, want all zero", codes)
		}
	}
}

// Property: for any non-degenerate tensor, every quantized code stays inside
// the symmetric ±127 domain and dequantization never overshoots maxAbs.
func TestQuantizeIntoDomainProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]float32, 48)
		var maxAbs float64
		for i := range src {
			src[i] = float32(rng.NormFloat64())
			if a := math.Abs(float64(src[i])); a > maxAbs {
				maxAbs = a
			}
		}
		scale := TensorScale(src, Int8)
		codes := make([]int8, len(src))
		QuantizeInto(codes, src, scale)
		back := make([]float32, len(src))
		DequantizeInto(back, codes, scale)
		for i, c := range codes {
			if c < -127 || c > 127 {
				return false
			}
			if math.Abs(float64(back[i])) > maxAbs+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
