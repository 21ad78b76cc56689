package dataflow

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"condor/internal/nn"
	"condor/internal/quant"
)

// The int8 float stage's AVX2 kernels must be their Go references bit for
// bit: quantize8 (through quantizeCodes) is quant.QuantizeInto, deqStore4 is
// deqStoreGo — on every float32 class, not just the values a network makes.

// float32Grid samples the float32 bit patterns: both signs, every exponent
// (zero and subnormal, every normal binade, Inf and the NaNs) and, per
// exponent, mantissas at both ends, in the middle and at random — which at
// the top exponent are ±Inf and NaN payloads, quiet and signalling.
func float32Grid(rng *rand.Rand) []float32 {
	mantissas := []uint32{0, 1, 2, 3, 0x200000, 0x3fffff, 0x400000, 0x400001, 0x7ffffe, 0x7fffff}
	var vals []float32
	for sign := uint32(0); sign < 2; sign++ {
		for exp := uint32(0); exp < 256; exp++ {
			for _, m := range mantissas {
				vals = append(vals, math.Float32frombits(sign<<31|exp<<23|m))
			}
			for range 6 {
				vals = append(vals, math.Float32frombits(sign<<31|exp<<23|uint32(rng.Intn(1<<23))))
			}
		}
	}
	return vals
}

// halfSteps lists, for one scale, the values whose quotient lands on or next
// to a rounding boundary k ± ½ of the int8 grid (and on the grid points
// themselves), out past the clamp at ±126.5.
func halfSteps(scale float64) []float32 {
	var vals []float32
	for k := -130; k <= 130; k++ {
		for _, q := range []float64{float64(k), float64(k) + 0.5, float64(k) - 0.5} {
			v := float32(q * scale)
			vals = append(vals, v, math.Nextafter32(v, float32(math.Inf(1))), math.Nextafter32(v, float32(math.Inf(-1))))
		}
	}
	return vals
}

// quantizeScales are the scales the requantizer is held to: typical
// activation scales, float32-rounded ones as frameScale makes, extremes
// whose reciprocal overflows or whose products underflow, subnormal scales
// and the zero-range scale 0.
var quantizeScales = []float64{
	1, 1.0 / 127, float64(float32(3.7 / 127)), float64(float32(0.0123)), 1e-3, 250,
	1e-30, 1e30, 2.2250738585072014e-308, 4e-308, 1e-310, 5e-324, 0,
}

// checkQuantize runs quantizeCodes over vals in chunks of every length from
// 1 to 41 — whole blocks of eight and a Go tail — and fails on any code that
// differs from quant.QuantizeInto's. It returns how many values it checked.
func checkQuantize(t *testing.T, vals []float32, scale float64) int {
	t.Helper()
	want := make([]int8, len(vals))
	quant.QuantizeInto(want, vals, scale)
	got := make([]int8, len(vals))
	for lo, n := 0, 1; lo < len(vals); lo, n = lo+n, n%41+1 {
		hi := min(lo+n, len(vals))
		quantizeCodes(got[lo:hi], vals[lo:hi], scale)
	}
	bad := 0
	for i := range vals {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("scale %g: value %g (bits %#08x): code %d, quant.QuantizeInto %d",
					scale, vals[i], math.Float32bits(vals[i]), got[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("scale %g: %d codes differ in all", scale, bad)
	}
	return len(vals)
}

func TestQuantizeAVX2MatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every requantization runs quant.QuantizeInto")
	}
	rng := rand.New(rand.NewSource(37))
	grid := float32Grid(rng)
	n := 0
	for _, scale := range quantizeScales {
		n += checkQuantize(t, grid, scale)
		n += checkQuantize(t, halfSteps(scale), scale)
		// The NaN a tensor can carry: 0·Inf and Inf−Inf make the quiet
		// default NaN, whose sign bit is set on amd64.
		n += checkQuantize(t, []float32{float32(math.Inf(1)) * 0, float32(math.NaN()), -float32(math.NaN())}, scale)
	}
	t.Logf("%d values × scales identical to quant.QuantizeInto", n)
}

// FuzzQuantizeAVX2 holds the AVX2 requantizer to quant.QuantizeInto on
// arbitrary float32 bit patterns (four little-endian bytes each) and scales.
func FuzzQuantizeAVX2(f *testing.F) {
	if !haveAVX2 {
		f.Skip("CPU without AVX2: every requantization runs quant.QuantizeInto")
	}
	seed := make([]byte, 0, 4*24)
	for _, v := range []float32{0, 1, -1, 126.5, -126.5, 0.5, -0.5, 127, 1e-45, float32(math.Inf(-1)), float32(math.NaN())} {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
	}
	for _, scale := range []float64{1, 1.0 / 127, 1e-310, 0} {
		f.Add(seed, scale)
	}
	f.Fuzz(func(t *testing.T, raw []byte, scale float64) {
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		got, want := make([]int8, len(vals)), make([]int8, len(vals))
		quantizeCodes(got, vals, scale)
		quant.QuantizeInto(want, vals, scale)
		for i := range vals {
			if got[i] != want[i] {
				t.Fatalf("scale %g: value %g (bits %#08x): code %d, quant.QuantizeInto %d",
					scale, vals[i], math.Float32bits(vals[i]), got[i], want[i])
			}
		}
	})
}

// deqCase draws one conv store call: int32 sums from the whole range, from
// a network's range and at the extremes, and deqScaleBias's scale and bias.
func deqCase(rng *rand.Rand, acc []int32) (deq, bias float64) {
	for i := range acc {
		switch rng.Intn(6) {
		case 0:
			acc[i] = int32(rng.Uint32())
		case 1:
			acc[i] = []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 1<<24 + 1, -(1<<25 + 3)}[rng.Intn(7)]
		default:
			acc[i] = int32(rng.NormFloat64() * 20000)
		}
	}
	return deqScaleBias(rng)
}

// deqScaleBias draws a conv store's dequantization scale from 1e-9 to 1e3
// (and, sometimes, one that overflows float32, underflows it to ±0, or is
// 1, where large sums round to even), and a bias that is sometimes −0, ±Inf
// or NaN, so that ±Inf and NaN lanes reach the max-abs fold.
func deqScaleBias(rng *rand.Rand) (deq, bias float64) {
	switch rng.Intn(10) {
	case 0:
		deq = 1
	case 1:
		deq = 1e-50 // float32 underflow: negative sums store −0
	case 2:
		deq = []float64{math.Inf(1), 1e300}[rng.Intn(2)] // Inf lanes, and NaN where a sum is 0
	default:
		deq = math.Pow(10, -9+12*rng.Float64())
	}
	switch rng.Intn(12) {
	case 0:
		bias = math.Copysign(0, -1)
	case 1:
		bias = math.NaN()
	case 2:
		bias = math.Inf(2*rng.Intn(2) - 1)
	default:
		bias = float64(float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)))))
	}
	return deq, bias
}

func TestDeqStoreAVX2MatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: every conv store runs deqStoreGo")
	}
	rng := rand.New(rand.NewSource(37))
	acc := make([]int32, 4*6)
	got, want := make([]float32, len(acc)), make([]float32, len(acc))
	var lanes, negZero, nan, inf int
	for it := 0; it < 40000; it++ {
		n := 4 * (1 + rng.Intn(6))
		deq, bias := deqCase(rng, acc[:n])
		m := []uint32{0, rng.Uint32() >> 1, 0x7f800000}[rng.Intn(3)]
		for _, act := range []nn.Kind{NoActivation, nn.ReLU} {
			relu := act == nn.ReLU
			gotM := deqStore4(&acc[0], n/4, &got[0], deq, bias, relu, m)
			wantM := deqStoreGo(want[:n], acc[:n], deq, bias, act, m)
			for i := range n {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("relu %v: sum %d · %g + %g: stored %g (%#08x), deqStoreGo %g (%#08x)", relu, acc[i], deq, bias,
						got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
				switch v := float64(want[i]); {
				case math.IsNaN(v):
					nan++
				case math.IsInf(v, 0):
					inf++
				case v == 0 && math.Signbit(v) && relu:
					negZero++
				}
			}
			if gotM != wantM {
				t.Fatalf("relu %v: magnitude maximum %#08x, deqStoreGo %#08x (start %#08x, stored %v)", relu, gotM, wantM, m, want[:n])
			}
			lanes += n
		}
	}
	if negZero == 0 || nan == 0 || inf == 0 {
		t.Fatalf("the cases missed a class: %d −0 lanes through ReLU, %d NaN lanes, %d ±Inf lanes", negZero, nan, inf)
	}
	t.Logf("%d lanes identical to deqStoreGo (%d −0 through ReLU, %d NaN, %d ±Inf)", lanes, negZero, nan, inf)
}
