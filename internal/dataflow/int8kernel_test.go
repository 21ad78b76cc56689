package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"condor/internal/condorir"
	"condor/internal/nn"
	"condor/internal/tensor"
)

// The int8 kernels keep every cell's sum in a register and never store a
// partial sum. These tests hold them — on the executor itself, one layer at
// a time — against the plainest possible integer reference: an int32
// accumulator per output cell and a triple loop.

// refConvInt8 is the oracle of the conv kernel: out[fi][oy][ox] accumulated
// in int32 over every input channel and tap of the zero-padded input.
func refConvInt8(l *LayerHW, in, w []int8) []int32 {
	c, k, s, pad := l.InShape.Channels, l.Kernel, l.Stride, l.Pad
	h, wd := l.InShape.Height, l.InShape.Width
	outH, outW := l.OutShape.Height, l.OutShape.Width
	out := make([]int32, l.OutShape.Channels*outH*outW)
	for fi := 0; fi < l.OutShape.Channels; fi++ {
		for pos := 0; pos < outH*outW; pos++ {
			oy, ox := pos/outW, pos%outW
			var acc int32
			for t := 0; t < c*k*k; t++ {
				ci, m, n := t/(k*k), t/k%k, t%k
				iy, ix := oy*s+m-pad, ox*s+n-pad
				if iy < 0 || iy >= h || ix < 0 || ix >= wd {
					continue
				}
				acc += int32(w[(fi*c+ci)*k*k+m*k+n]) * int32(in[(ci*h+iy)*wd+ix])
			}
			out[fi*outH*outW+pos] = acc
		}
	}
	return out
}

// refFCInt8 is the oracle of the FC kernel.
func refFCInt8(in, w []int8, neurons int) []int32 {
	out := make([]int32, neurons)
	for oi := range out {
		for h, xv := range in {
			out[oi] += int32(w[oi*len(in)+h]) * int32(xv)
		}
	}
	return out
}

// int8KernelCase is one layer run through a hand-built executor.
type int8KernelCase struct {
	l     LayerHW
	in, w []int8
	bias  []float32
	scale float64 // input scale; the weight scale is 1 (codes are the weights)
}

// runInt8Kernel lowers a one-layer PE around the case the way Instantiate
// does, runs the layer the way a worker would and returns the floats it left
// for requantization. The float weights in the weight set are the codes
// themselves with one pinned at 127, so the production quantizer
// (quantizeLayerWeights) reproduces them at scale 1. A non-nil relayout
// rewrites the lowered layer before it runs — how a test sends it to a kernel
// this CPU would not choose.
func runInt8Kernel(t *testing.T, tc int8KernelCase, relayout func(*layerState)) []float32 {
	t.Helper()
	l := tc.l
	l.Name, l.Activation, l.Normalize = "k", NoActivation, NoActivation
	wf := make([]float32, len(tc.w))
	for i, c := range tc.w {
		wf[i] = float32(c)
	}
	if s := frameScale(wf); s != 1 {
		t.Fatalf("weight scale %g: the case must pin one weight code at ±127", s)
	}
	x := newI8Exec(oneLayerPE(t, 8, l, wf, tc.bias))
	if relayout != nil {
		relayout(&x.plan.layers[0])
	}
	x.prepare()
	x.pass.cur, x.pass.inScale = tc.in, tc.scale
	x.runLayer0()
	return x.el.floats(l.OutShape.Volume())
}

// oneLayerPE lowers a PE of layer l alone at word width bits, with weights
// w and bias (none when w is nil), into an executor's base: the PE and its
// plan.
func oneLayerPE(t testing.TB, bits int, l LayerHW, w, bias []float32) peBase {
	t.Helper()
	ws := condorir.NewWeightSet()
	if w != nil {
		ws.PutRaw(l.Name, condorir.EntryWeights, nil, w)
	}
	if bias != nil {
		ws.PutRaw(l.Name, condorir.EntryBias, nil, bias)
	}
	pe := &PE{ID: "pe0", Layers: []LayerHW{l}, WeightsOnChip: true, PartialsOnChip: true}
	plan := &pePlan{}
	if err := plan.lower(pe, bits, ws); err != nil {
		t.Fatal(err)
	}
	return peBase{pe: pe, plan: plan}
}

// withSlack copies in into a volume followed by poolSlack more elements, as
// a worker's volumes are.
func withSlack[E float32 | int8](in []E) []E {
	buf := make([]E, len(in)+poolSlack)
	copy(buf, in)
	return buf[:len(in)]
}

// runLayer0 runs a one-layer executor's layer from pass.cur into pass.out,
// a volume with slack made on first use, as run does for one image.
func (x *peExec[E]) runLayer0() {
	p := &x.pass
	p.l, p.st = &x.pe.Layers[0], &x.plan.layers[0]
	if p.out == nil {
		p.out = withSlack(make([]E, p.l.OutShape.Volume()))
	}
	x.runLayer()
}

// checkInt8Kernel runs the case and compares the kernel's floats with the
// reference sums pushed through the same dequantization expression, bit for
// bit.
func checkInt8Kernel(t *testing.T, tc int8KernelCase, want []int32) {
	t.Helper()
	per := len(want) / tc.l.OutShape.Channels
	got := runInt8Kernel(t, tc, nil)
	for i, acc := range want {
		var bias float64
		if len(tc.bias) > 0 {
			bias = float64(tc.bias[i/per])
		}
		if w := float32(float64(acc)*tc.scale + bias); math.Float32bits(got[i]) != math.Float32bits(w) {
			t.Fatalf("cell %d (channel %d): kernel %v, reference sum %d dequantizes to %v", i, i/per, got[i], acc, w)
		}
	}
}

func randomCodes(rng *rand.Rand, n int) []int8 {
	codes := make([]int8, n)
	for i := range codes {
		codes[i] = int8(rng.Intn(255) - 127)
	}
	return codes
}

func randomBias(rng *rand.Rand, n int) []float32 {
	b := make([]float32, n)
	for i := range b {
		b[i] = rng.Float32() - 0.5
	}
	return b
}

func convLayerHW(c, h, w, k, stride, pad, f int) LayerHW {
	return LayerHW{Kind: nn.Conv, Kernel: k, Stride: stride, Pad: pad,
		InShape:  nn.Shape{Channels: c, Height: h, Width: w},
		OutShape: nn.Shape{Channels: f, Height: (h+2*pad-k)/stride + 1, Width: (w+2*pad-k)/stride + 1}}
}

func fcLayerHW(vol, neurons int) LayerHW {
	return LayerHW{Kind: nn.FullyConnected, InShape: nn.Shape{Channels: 1, Height: 1, Width: vol},
		OutShape: nn.Shape{Channels: neurons, Height: 1, Width: 1}}
}

// TestInt8ConvKernelMatchesReference sweeps every kernel 1–5 × stride 1–3 ×
// pad 0–2 over input widths that leave output rows of every length modulo
// the four-position tile, with odd input- and output-channel counts.
func TestInt8ConvKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for k := 1; k <= 5; k++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 2; pad++ {
				for wi, width := range []int{5, 6, 8, 11} {
					if width+2*pad < k {
						continue
					}
					c, f, height := 1+(k+wi)%3, 3+2*(wi%2)+k%2, 5+wi%2
					l := convLayerHW(c, height, width, k, stride, pad, f)
					tc := int8KernelCase{l: l, scale: 0.0123,
						in: randomCodes(rng, l.InShape.Volume()), w: randomCodes(rng, l.WeightWords()), bias: randomBias(rng, f)}
					tc.w[rng.Intn(len(tc.w))] = 127
					t.Run(fmt.Sprintf("k=%d/s=%d/p=%d/w=%d/c=%d/f=%d", k, stride, pad, width, c, f), func(t *testing.T) {
						checkInt8Kernel(t, tc, refConvInt8(&l, tc.in, tc.w))
					})
				}
			}
		}
	}
}

// TestInt8FCKernelMatchesReference covers neuron counts on both sides of the
// four-neuron tile and of two tiles, and odd counts (a last quad that
// repeats its neuron).
func TestInt8FCKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, neurons := range []int{1, 2, 3, 7, 8, 9, 17, 21} {
		for _, vol := range []int{1, 9, 50} {
			l := fcLayerHW(vol, neurons)
			tc := int8KernelCase{l: l, scale: 0.0321,
				in: randomCodes(rng, vol), w: randomCodes(rng, neurons*vol), bias: randomBias(rng, neurons)}
			tc.w[rng.Intn(len(tc.w))] = -127
			t.Run(fmt.Sprintf("o=%d/v=%d", neurons, vol), func(t *testing.T) {
				checkInt8Kernel(t, tc, refFCInt8(tc.in, tc.w, neurons))
			})
		}
	}
}

// TestInt8KernelsSaturatedLanes is the CND026-depth saturation test: it
// drives the int32 accumulators of neighbouring cells to the largest sums a
// layer can produce, in all four sign combinations, so a sum that wrapped,
// or leaked into a neighbour's, would show.
func TestInt8KernelsSaturatedLanes(t *testing.T) {
	// Neighbouring cells take the signs + − − + + + − −: every combination
	// in some pair, and again with the other operand's sign flipped.
	signs := []int8{127, -127, -127, 127, 127, 127, -127, -127}

	// Conv: stride = kernel, so neighbouring windows share no input and the
	// plane saturates them independently — window ox carries signs[ox];
	// channel 0's weights are +127, channel 1's −127. Every sum is
	// ±C·K²·127², exact in float32 at this depth.
	t.Run("conv", func(t *testing.T) {
		const c, k, f = 8, 3, 3
		outW := len(signs)
		l := convLayerHW(c, k, k*outW, k, k, 0, f)
		in := make([]int8, l.InShape.Volume())
		for i := range in {
			in[i] = signs[i%(k*outW)/k]
		}
		w := make([]int8, l.WeightWords())
		for i := range w {
			w[i] = 127
			if i/(c*k*k) == 1 {
				w[i] = -127
			}
		}
		want := refConvInt8(&l, in, w)
		if hi := int32(c * k * k * 127 * 127); want[0] != hi || want[1] != -hi || want[outW] != -hi || want[outW+1] != hi {
			t.Fatalf("reference sums %v do not saturate both signs", want[:2*outW])
		}
		checkInt8Kernel(t, int8KernelCase{l: l, in: in, w: w, scale: 1}, want)
	})

	// FC at depth 130 944 — 127 short of the CND026 limit and a multiple of
	// 128, so the saturated sum ±130944·127² is a float32 and the bias can
	// cancel it exactly: the expected output is an exact zero, which a sum
	// off by one would miss where float32 rounding of the bare sum would hide
	// it. Neuron oi's weights are all signs[oi].
	t.Run("fc", func(t *testing.T) {
		const vol = 130944
		l := fcLayerHW(vol, len(signs))
		if d := Int8AccumulatorRange("pe0", &l); d != nil {
			t.Fatal(d)
		}
		w := make([]int8, len(signs)*vol)
		for i := range w {
			w[i] = signs[i/vol]
		}
		for _, code := range []int8{127, -127} {
			in := make([]int8, vol)
			for i := range in {
				in[i] = code
			}
			want := refFCInt8(in, w, len(signs))
			bias := make([]float32, len(signs))
			for i, acc := range want {
				bias[i] = -float32(acc)
				if int32(bias[i]) != -acc {
					t.Fatalf("saturated sum %d is not a float32", acc)
				}
			}
			checkInt8Kernel(t, int8KernelCase{l: l, in: in, w: w, bias: bias, scale: 1}, want)
		}
	})
}

// refPoolInt8 is the oracle of the pool kernels: each output cell the maximum
// or the int32 sum of its k×k window over the input codes, a padded position
// reading code 0 (the executor's zero-padded planes).
func refPoolInt8(l *LayerHW, in []int8) []int32 {
	k, s, pad := l.Kernel, l.Stride, l.Pad
	h, wd := l.InShape.Height, l.InShape.Width
	outH, outW := l.OutShape.Height, l.OutShape.Width
	out := make([]int32, l.OutShape.Volume())
	for ci := 0; ci < l.InShape.Channels; ci++ {
		for pos := 0; pos < outH*outW; pos++ {
			oy, ox := pos/outW, pos%outW
			v := int32(0)
			if l.Kind == nn.MaxPool {
				v = math.MinInt32
			}
			for m := 0; m < k; m++ {
				for n := 0; n < k; n++ {
					var e int32
					if iy, ix := oy*s+m-pad, ox*s+n-pad; iy >= 0 && iy < h && ix >= 0 && ix < wd {
						e = int32(in[(ci*h+iy)*wd+ix])
					}
					if l.Kind != nn.MaxPool {
						v += e
					} else if e > v {
						v = e
					}
				}
			}
			out[ci*outH*outW+pos] = v
		}
	}
	return out
}

// extremeCodes draws codes heavy in the extremes (−128 included, which the
// quantizer never emits but a kernel must order) and in repeated values, so
// windows tie.
func extremeCodes(rng *rand.Rand, n int) []int8 {
	codes := make([]int8, n)
	for i := range codes {
		switch rng.Intn(6) {
		case 0:
			codes[i] = math.MinInt8
		case 1:
			codes[i] = math.MaxInt8
		case 2:
			codes[i] = int8(rng.Intn(3) - 1)
		default:
			codes[i] = int8(rng.Intn(256) - 128)
		}
	}
	return codes
}

// newInt8PoolExec prepares an int8 executor for a one-layer pool PE, with
// the codes staged as a worker stages them.
func newInt8PoolExec(t *testing.T, l LayerHW, codes []int8, inScale float64) *peExec[int8] {
	t.Helper()
	x := newI8Exec(oneLayerPE(t, 8, l, nil, nil))
	x.prepare()
	x.pass.cur, x.pass.inScale = withSlack(codes), inScale
	return x
}

// TestInt8PoolMatchesReference runs pool layers through the int8 executor —
// k 1–3 × stride 1–3 × pad 0–1 × output widths below and across the AVX2
// kernel's steps (16 windows at stride 2, 32 at stride 1), layers whose
// planes stack (k = stride, no padding) and layers whose planes do not, max,
// max + ReLU and average —
// with the AVX2 kernels and with the Go kernels, and compares every cell with
// refPoolInt8: a pure max pool's codes exactly, the others' floats (before
// requantization) bit for bit with the reference pushed through the
// executor's dequantization.
func TestInt8PoolMatchesReference(t *testing.T) {
	kinds := []struct {
		name string
		kind nn.Kind
		act  nn.Kind
	}{{"max", nn.MaxPool, NoActivation}, {"max+relu", nn.MaxPool, nn.ReLU}, {"avg", nn.AvgPool, NoActivation}}
	for _, leg := range []string{"avx2", "go-kernels"} {
		t.Run(leg, func(t *testing.T) {
			if leg == "go-kernels" {
				DisableAVX2(t)
			}
			rng := rand.New(rand.NewSource(31))
			const c, inScale = 3, 0.0173
			var cells int
			for k := 1; k <= 3; k++ {
				for s := 1; s <= 3; s++ {
					for pad := 0; pad <= 1; pad++ {
						for _, outW := range []int{3, 4, 5, 8, 12, 13, 17, 33} {
							outH := 2 + outW%3
							inW, inH := (outW-1)*s+k-2*pad, (outH-1)*s+k-2*pad
							if inW < 1 || inH < 1 {
								continue
							}
							in := extremeCodes(rng, c*inH*inW)
							for _, kd := range kinds {
								l := LayerHW{Name: "pool", Kind: kd.kind, Activation: kd.act, Kernel: k, Stride: s, Pad: pad,
									InShape: nn.Shape{Channels: c, Height: inH, Width: inW}, OutShape: nn.Shape{Channels: c, Height: outH, Width: outW}}
								want := refPoolInt8(&l, in)
								x := newInt8PoolExec(t, l, in, inScale)
								p := &x.pass
								x.runLayer0()
								fb := x.el.floats(len(p.out))
								for i, r := range want {
									cells++
									if kd.name == "max" {
										if p.out[i] != int8(r) {
											t.Fatalf("k=%d s=%d pad=%d outW=%d %s cell %d: code %d, reference %d", k, s, pad, outW, kd.name, i, p.out[i], r)
										}
										continue
									}
									w := float32(float64(r) * inScale)
									if kd.kind == nn.AvgPool {
										w = float32(float64(r) * (inScale / float64(k*k)))
									}
									w = applyActivation(kd.act, w)
									if got := fb[i]; math.Float32bits(got) != math.Float32bits(w) {
										t.Fatalf("k=%d s=%d pad=%d outW=%d %s cell %d: %v, reference %d gives %v", k, s, pad, outW, kd.name, i, got, r, w)
									}
								}
							}
						}
					}
				}
			}
			t.Logf("%d cells identical to the reference", cells)
		})
	}
}

// TestInt8DirectAndGEMMIdentical pins the contract that on the packed
// datapath the convolution algorithm is a model decision, not a host kernel:
// direct and im2col_gemm builds of one net return the same bits, the same
// PEStats apart from the cycles the schedule owns, and the same DDR traffic.
func TestInt8DirectAndGEMMIdentical(t *testing.T) {
	layers := []condorir.Layer{
		conv("c1", 5, 1, 2, 6, -1), {Name: "r1", Type: "ReLU", PEGroup: -1},
		pool("p1", "MaxPooling", 2, 2, 0, -1),
		conv("c2", 3, 2, 1, 7, -1), {Name: "r2", Type: "TanH", PEGroup: -1},
		{Name: "ip", Type: "InnerProduct", NumOutput: 9, Bias: true, PEGroup: -1},
	}
	ir, ws, net := buildIR(t, "int8-algo-contract", condorir.InputShape{Channels: 3, Height: 13, Width: 11}, layers, 31)
	batch := randomImages(3, net.Input, 32)
	run := func(algo ConvAlgo, par int) ([]*tensor.Tensor, *RunStats) {
		spec, err := BuildSpec(ir)
		if err != nil {
			t.Fatal(err)
		}
		spec.WordBits = 8
		setConvAlgo(spec, algo)
		for _, pe := range spec.PEs {
			pe.Par = condorir.Parallelism{In: 1, Out: par}
		}
		acc, err := Instantiate(spec, ws)
		if err != nil {
			t.Fatal(err)
		}
		outs, stats, err := acc.Run(batch)
		if err != nil {
			t.Fatal(err)
		}
		return outs, stats
	}
	for _, par := range []int{1, 3} {
		dOut, dStats := run(AlgoDirect, par)
		gOut, gStats := run(AlgoGEMM, par)
		cyclesDiffer := false
		for i := range gStats.PEs {
			cyclesDiffer = cyclesDiffer || gStats.PEs[i].Cycles != dStats.PEs[i].Cycles
			gStats.PEs[i].Cycles = dStats.PEs[i].Cycles
		}
		if !cyclesDiffer {
			t.Error("direct and im2col_gemm report the same cycles: the algorithm no longer reaches the cycle model")
		}
		assertRunsIdentical(t, "direct", dOut, dStats, "im2col_gemm", gOut, gStats)
		if dStats.InputScale != gStats.InputScale || dStats.QuantErrorBound() != gStats.QuantErrorBound() {
			t.Errorf("quantization record differs: direct %g/%g, im2col_gemm %g/%g",
				dStats.InputScale, dStats.QuantErrorBound(), gStats.InputScale, gStats.QuantErrorBound())
		}
	}
}
