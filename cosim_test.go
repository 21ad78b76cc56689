package condor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/models"
	"condor/internal/nn"
	"condor/internal/quant"
	"condor/internal/tensor"
)

func TestCosimTC1Passes(t *testing.T) {
	b, err := New().BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Cosim(6, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("co-simulation failed: %+v", rep)
	}
	if rep.MaxAbsDiff > rep.Tolerance {
		t.Fatalf("max diff %v over tolerance", rep.MaxAbsDiff)
	}
	if rep.ArgMaxAgreement != 1 {
		t.Fatalf("argmax agreement %v", rep.ArgMaxAgreement)
	}
	if rep.ModelCycles != rep.MeasuredCycles {
		t.Fatalf("cycle model %d vs measured %d", rep.ModelCycles, rep.MeasuredCycles)
	}
}

func TestCosimLeNetViaCaffe(t *testing.T) {
	blob, err := models.LeNetCaffeModel(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().BuildAccelerator(Input{
		Prototxt: models.LeNetPrototxt, CaffeModel: blob,
		Board: "aws-f1-vu9p", FrequencyMHz: 180,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Cosim(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("LeNet co-simulation failed: %+v", rep)
	}
}

func TestCosimQuantizedBuild(t *testing.T) {
	in := tc1Input(t)
	in.Precision = quant.Int8
	b, err := New().BuildAccelerator(in)
	if err != nil {
		t.Fatal(err)
	}
	// The fabric runs on the quantized weights, and so does the reference
	// inside Cosim (both use b.Weights); the automatic tolerance is the int8
	// run's quantization error bound, so the run must still pass.
	rep, err := b.Cosim(4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("quantized co-simulation failed: %+v", rep)
	}
}

// TestCosimFloat32IsExact: the float32 fabric accumulates every cell in the
// reference engine's order, so with the automatic tolerance Cosim compares
// bit for bit, and TC1, LeNet, a chain of average pools and random networks
// (padded or not) pass that comparison under both tap-table conv algorithms.
func TestCosimFloat32IsExact(t *testing.T) {
	lenetIR, lenetWS, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   Input
	}{{"tc1", tc1Input(t)}, {"lenet", Input{IR: lenetIR, Weights: lenetWS}}, {"avgpool", avgPoolNetInput(t)}}
	for seed := int64(1); seed <= 12; seed++ {
		cases = append(cases, struct {
			name string
			in   Input
		}{fmt.Sprintf("random%d", seed), randomNetInput(t, seed)})
	}
	for _, tc := range cases {
		for _, algo := range []dataflow.ConvAlgo{dataflow.AlgoDirect, dataflow.AlgoGEMM} {
			t.Run(tc.name+"/"+string(algo), func(t *testing.T) {
				b, err := New().BuildAccelerator(tc.in)
				if err != nil {
					t.Fatal(err)
				}
				for _, pe := range b.Spec.PEs {
					for li := range pe.Layers {
						pe.Layers[li].ConvAlgo = algo
					}
				}
				rep, err := b.Cosim(4, 7, 0)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Tolerance != 0 || rep.MaxAbsDiff != 0 || !rep.Passed() {
					t.Fatalf("float32 fabric is not the reference bit for bit: %+v", rep)
				}
			})
		}
	}
}

// avgPoolNetInput is a fixed chain of average pools — 3×3 padded, 3×3
// strided and 2×2 — whose 1/9 is inexact in float32, so the reference must
// average exactly as the fabric does for the exact comparison to hold.
func avgPoolNetInput(t *testing.T) Input {
	t.Helper()
	ir := &condorir.Network{
		Name: "avgpool", Board: "aws-f1-vu9p", FrequencyMHz: 100,
		Input: condorir.InputShape{Channels: 2, Height: 12, Width: 12},
		Layers: []condorir.Layer{
			{Name: "conv", Type: "Convolution", KernelSize: 3, Stride: 1, Pad: 1, NumOutput: 3, Bias: true, PEGroup: -1},
			{Name: "avg3p1", Type: "AvgPooling", KernelSize: 3, Stride: 1, Pad: 1, PEGroup: -1},
			{Name: "avg3s2", Type: "AvgPooling", KernelSize: 3, Stride: 2, PEGroup: -1},
			{Name: "avg2", Type: "AvgPooling", KernelSize: 2, Stride: 2, PEGroup: -1},
			{Name: "fc", Type: "InnerProduct", NumOutput: 4, Bias: true, PEGroup: -1},
		},
	}
	ws, err := models.RandomWeights(ir, 11)
	if err != nil {
		t.Fatal(err)
	}
	return Input{IR: ir, Weights: ws}
}

// randomNetInput builds a small random chain — convolutions (some padded),
// max and average pools and a closing FC layer — with random weights.
func randomNetInput(t *testing.T, seed int64) Input {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := rng.Intn(6) + 8
	ir := &condorir.Network{
		Name: fmt.Sprintf("random%d", seed), Board: "aws-f1-vu9p", FrequencyMHz: 100,
		Input: condorir.InputShape{Channels: rng.Intn(2) + 1, Height: h, Width: h},
	}
	for i := 0; i < rng.Intn(3)+1 && h >= 4; i++ {
		name := string(rune('a' + i))
		if rng.Intn(3) > 0 {
			k, pad := rng.Intn(2)+2, rng.Intn(2)
			ir.Layers = append(ir.Layers, condorir.Layer{Name: "conv" + name, Type: "Convolution",
				KernelSize: k, Stride: 1, Pad: pad, NumOutput: rng.Intn(3) + 1, Bias: rng.Intn(2) == 0, PEGroup: -1})
			h += 2*pad - k + 1
			if rng.Intn(2) == 0 {
				ir.Layers = append(ir.Layers, condorir.Layer{Name: "relu" + name, Type: "ReLU", PEGroup: -1})
			}
		} else {
			// A max pool, or an average pool whose 1/k² is exact (k = 2) or
			// not (k = 3), padded or not.
			p := []struct {
				typ       string
				k, s, pad int
			}{{"MaxPooling", 2, 2, 0}, {"AvgPooling", 2, 2, 0}, {"AvgPooling", 3, 1, 1}, {"AvgPooling", 3, 2, 0}}[rng.Intn(4)]
			ir.Layers = append(ir.Layers, condorir.Layer{Name: "pool" + name, Type: p.typ, KernelSize: p.k, Stride: p.s, Pad: p.pad, PEGroup: -1})
			h = (h+2*p.pad-p.k)/p.s + 1
		}
	}
	ir.Layers = append(ir.Layers, condorir.Layer{Name: "fc", Type: "InnerProduct", NumOutput: rng.Intn(4) + 2, Bias: true, PEGroup: -1})
	ws, err := models.RandomWeights(ir, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Input{IR: ir, Weights: ws}
}

// TestCosimCatchesOneULP is the exact comparison's mutation check: a fabric
// holding one conv weight moved by one ulp must register as a mismatch
// against the reference engine on the unmoved weights — a difference no
// reassociation tolerance would see.
func TestCosimCatchesOneULP(t *testing.T) {
	b, err := New().BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.Weights.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	moved, err := condorir.ParseWeights(raw)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := moved.Get(b.IR.Layers[0].Name, condorir.EntryWeights)
	if !ok {
		t.Fatalf("no weights for %s", b.IR.Layers[0].Name)
	}
	e.Data[0] = math.Nextafter32(e.Data[0], float32(math.Inf(1)))
	acc, err := dataflow.Instantiate(b.Spec, moved)
	if err != nil {
		t.Fatal(err)
	}
	net, err := b.IR.BuildNN(b.Weights)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*tensor.Tensor, 4)
	rng := rand.New(rand.NewSource(4))
	for i := range imgs {
		imgs[i] = tensor.New(b.Spec.Input.Channels, b.Spec.Input.Height, b.Spec.Input.Width)
		imgs[i].FillRandom(rng, 1)
	}
	outs, _, err := acc.Run(imgs)
	if err != nil {
		t.Fatal(err)
	}
	rep := CosimReport{Images: len(imgs)}
	if err := rep.compare(net, imgs, outs, true); err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches == 0 || rep.Passed() {
		t.Fatal("a one-ulp weight change passed the exact comparison")
	}
	if rep.MaxAbsDiff > 1e-5 {
		t.Fatalf("max diff %g: the change is not a rounding-sized one", rep.MaxAbsDiff)
	}
	t.Logf("%d of %d images moved, by at most %g", rep.Mismatches, rep.Images, rep.MaxAbsDiff)
}

// TestCosimExplicitTolerance: a caller's tolerance overrides the automatic
// one. On a winograd_f23 build, whose transform domain rounds apart from the
// reference, the automatic bound passes and a bound below that rounding
// fails; an exact build held to a caller's bound reports that bound.
func TestCosimExplicitTolerance(t *testing.T) {
	b, err := New().BuildAccelerator(avgPoolNetInput(t))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Cosim(4, 7, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tolerance != 1e-3 || !rep.Passed() {
		t.Fatalf("direct build under a caller's 1e-3: %+v", rep)
	}
	wino := 0
	for _, pe := range b.Spec.PEs {
		for li := range pe.Layers {
			if l := &pe.Layers[li]; l.Kind == nn.Conv && dataflow.WinogradOK(l.Kernel, l.Stride, l.OutShape) {
				l.ConvAlgo = dataflow.AlgoWinograd
				wino++
			}
		}
	}
	if wino == 0 {
		t.Fatal("no conv layer qualifies for winograd_f23")
	}
	rep, err = b.Cosim(4, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tolerance != DefaultCosimTolerance || !rep.Passed() {
		t.Fatalf("winograd build under the automatic tolerance: %+v", rep)
	}
	if rep.MaxAbsDiff == 0 {
		t.Fatal("winograd build matched the reference bit for bit; the tight bound below cannot fail")
	}
	tight := rep.MaxAbsDiff / 2
	rep, err = b.Cosim(4, 7, tight)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tolerance != tight || rep.Mismatches == 0 || rep.Passed() {
		t.Fatalf("winograd build passed a bound of half its own error %g: %+v", tight, rep)
	}
}

func TestCosimInputValidation(t *testing.T) {
	b, err := New().BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Cosim(0, 1, 0); err == nil {
		t.Fatal("expected n<=0 error")
	}
}
