package dataflow

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/nn"
	"condor/internal/tensor"
)

// buildIR creates an IR network with random weights; returns the IR, the
// weight set and the reference network.
func buildIR(t testing.TB, name string, input condorir.InputShape, layers []condorir.Layer, seed int64) (*condorir.Network, *condorir.WeightSet, *nn.Network) {
	if t != nil {
		t.Helper()
	}
	ir := &condorir.Network{
		Name: name, Board: "aws-f1-vu9p", FrequencyMHz: 100,
		Input: input, Layers: layers,
	}
	shapes, err := ir.Shapes()
	if err != nil {
		if t != nil {
			t.Fatal(err)
		}
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ws := condorir.NewWeightSet()
	for i := range ir.Layers {
		l := &ir.Layers[i]
		kind, _ := l.Kind()
		in := shapes[i]
		switch kind {
		case nn.Conv:
			w := tensor.New(l.NumOutput, in.Channels, l.KernelSize, l.KernelSize)
			w.FillRandom(rng, 0.5)
			ws.Put(l.Name, condorir.EntryWeights, w)
		case nn.FullyConnected:
			w := tensor.New(l.NumOutput, in.Volume())
			w.FillRandom(rng, 0.5)
			ws.Put(l.Name, condorir.EntryWeights, w)
		}
		if l.Bias {
			b := tensor.New(l.NumOutput)
			b.FillRandom(rng, 0.5)
			ws.Put(l.Name, condorir.EntryBias, b)
		}
	}
	net, err := ir.BuildNN(ws)
	if err != nil {
		if t != nil {
			t.Fatal(err)
		}
		panic(err)
	}
	return ir, ws, net
}

// lenetLayers is a LeNet-scale topology (smaller input for test speed).
func tinyLeNetLayers() []condorir.Layer {
	return []condorir.Layer{
		{Name: "conv1", Type: "Convolution", KernelSize: 3, Stride: 1, NumOutput: 4, Bias: true, PEGroup: -1},
		{Name: "pool1", Type: "MaxPooling", KernelSize: 2, Stride: 2, PEGroup: -1},
		{Name: "conv2", Type: "Convolution", KernelSize: 3, Stride: 1, NumOutput: 6, Bias: true, PEGroup: -1},
		{Name: "pool2", Type: "AvgPooling", KernelSize: 2, Stride: 2, PEGroup: -1},
		{Name: "ip1", Type: "InnerProduct", NumOutput: 8, Bias: true, PEGroup: -1},
		{Name: "relu1", Type: "ReLU", PEGroup: -1},
		{Name: "ip2", Type: "InnerProduct", NumOutput: 5, Bias: true, PEGroup: -1},
		{Name: "prob", Type: "LogSoftMax", PEGroup: -1},
	}
}

func randomImages(n int, s nn.Shape, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Tensor, n)
	for i := range out {
		img := tensor.New(s.Channels, s.Height, s.Width)
		img.FillRandom(rng, 1)
		out[i] = img
	}
	return out
}

const fabricTol = 2e-3 // float32 accumulation order differs from the reference

func runAndCompare(t *testing.T, ir *condorir.Network, ws *condorir.WeightSet, net *nn.Network, batch int, seed int64) *RunStats {
	t.Helper()
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	imgs := randomImages(batch, net.Input, seed)
	outs, stats, err := acc.Run(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != batch {
		t.Fatalf("got %d outputs", len(outs))
	}
	for i, img := range imgs {
		want, err := net.Predict(img)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(outs[i], want, fabricTol) {
			t.Fatalf("image %d: fabric output differs from reference by %g",
				i, tensor.MaxAbsDiff(outs[i], want))
		}
	}
	return stats
}

func TestAcceleratorMatchesReferenceTinyLeNet(t *testing.T) {
	ir, ws, net := buildIR(t, "tiny-lenet", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, tinyLeNetLayers(), 1)
	stats := runAndCompare(t, ir, ws, net, 3, 2)
	if stats.Images != 3 {
		t.Fatalf("stats.Images = %d", stats.Images)
	}
	// 6 PEs: conv1, pool1, conv2, pool2, ip1(+relu), ip2(+prob).
	if len(stats.PEs) != 6 {
		t.Fatalf("PE count = %d", len(stats.PEs))
	}
}

func TestAcceleratorWithPaddingAndStride(t *testing.T) {
	layers := []condorir.Layer{
		{Name: "conv1", Type: "Convolution", KernelSize: 3, Stride: 2, Pad: 1, NumOutput: 3, Bias: true, PEGroup: -1},
		{Name: "relu1", Type: "ReLU", PEGroup: -1},
		{Name: "conv2", Type: "Convolution", KernelSize: 3, Stride: 1, Pad: 1, NumOutput: 2, Bias: false, PEGroup: -1},
	}
	ir, ws, net := buildIR(t, "padded", condorir.InputShape{Channels: 2, Height: 9, Width: 9}, layers, 3)
	runAndCompare(t, ir, ws, net, 2, 4)
}

func TestAcceleratorFusedPE(t *testing.T) {
	layers := tinyLeNetLayers()
	// Fuse conv1+pool1 and conv2+pool2 onto two PEs.
	layers[0].PEGroup = 0
	layers[1].PEGroup = 0
	layers[2].PEGroup = 1
	layers[3].PEGroup = 1
	ir, ws, net := buildIR(t, "fused", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, layers, 5)
	stats := runAndCompare(t, ir, ws, net, 2, 6)
	if len(stats.PEs) != 4 {
		t.Fatalf("PE count = %d, want 4 after fusion", len(stats.PEs))
	}
	// The fused handoff must go through the datamover.
	if stats.DRAM.BytesWritten == 0 {
		t.Fatal("fused intermediates should produce DDR write traffic")
	}
}

func TestAcceleratorSigmoidTanhActivations(t *testing.T) {
	layers := []condorir.Layer{
		{Name: "conv1", Type: "Convolution", KernelSize: 3, NumOutput: 2, Bias: true, PEGroup: -1},
		{Name: "sig", Type: "Sigmoid", PEGroup: -1},
		{Name: "ip1", Type: "InnerProduct", NumOutput: 4, Bias: true, PEGroup: -1},
		{Name: "th", Type: "TanH", PEGroup: -1},
	}
	ir, ws, net := buildIR(t, "acts", condorir.InputShape{Channels: 1, Height: 6, Width: 6}, layers, 7)
	runAndCompare(t, ir, ws, net, 2, 8)
}

func TestAcceleratorSoftmaxOutput(t *testing.T) {
	layers := []condorir.Layer{
		{Name: "ip1", Type: "InnerProduct", NumOutput: 6, Bias: true, PEGroup: -1},
		{Name: "prob", Type: "Softmax", PEGroup: -1},
	}
	ir, ws, net := buildIR(t, "sm", condorir.InputShape{Channels: 2, Height: 3, Width: 3}, layers, 9)
	runAndCompare(t, ir, ws, net, 1, 10)
}

func TestAcceleratorBatchPipelining(t *testing.T) {
	ir, ws, net := buildIR(t, "batch", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, tinyLeNetLayers(), 11)
	stats := runAndCompare(t, ir, ws, net, 8, 12)
	for i := range stats.PEs {
		if stats.PEs[i].Images != 8 {
			t.Fatalf("PE %s processed %d images", stats.PEs[i].ID, stats.PEs[i].Images)
		}
	}
}

func TestAcceleratorRejectsWrongInputShape(t *testing.T) {
	ir, ws, _ := buildIR(t, "shape", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, tinyLeNetLayers(), 13)
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := acc.Run([]*tensor.Tensor{tensor.New(1, 5, 5)}); err == nil {
		t.Fatal("expected input-shape error")
	}
}

// A NaN or an infinity has no int8 code: the packed session must refuse the
// batch with the typed error before feeding anything, name the image, and
// serve the next clean batch as if nothing had happened. The float32 fabric
// propagates such values like any arithmetic does and accepts them.
func TestPackedSessionRejectsNonFiniteInput(t *testing.T) {
	ir, ws, net := buildIR(t, "nonfinite", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, tinyLeNetLayers(), 13)
	clean := randomImages(3, net.Input, 14)
	open := func(bits int) *Session {
		spec, err := BuildSpec(ir)
		if err != nil {
			t.Fatal(err)
		}
		spec.WordBits = bits
		acc, err := Instantiate(spec, ws)
		if err != nil {
			t.Fatal(err)
		}
		return acc.OpenSession()
	}
	poisoned := func(v float32) []*tensor.Tensor {
		bad := clean[1].Clone()
		bad.Data()[7] = v
		return []*tensor.Tensor{clean[0], bad, clean[2]}
	}

	sess := open(8)
	want, _, err := sess.RunBatch(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		_, _, err := sess.RunBatch(poisoned(v))
		if !errors.Is(err, ErrNonFiniteInput) {
			t.Fatalf("input %v: err = %v, want ErrNonFiniteInput", v, err)
		}
		if !strings.Contains(err.Error(), "image 1 ") {
			t.Errorf("input %v: error %q does not name image 1", v, err)
		}
		got, stats, err := sess.RunBatch(clean)
		if err != nil {
			t.Fatalf("clean batch after a rejected %v: %v", v, err)
		}
		for i := range got {
			if tensor.MaxAbsDiff(got[i], want[i]) != 0 {
				t.Errorf("clean batch after a rejected %v: image %d differs from the first run", v, i)
			}
		}
		if math.IsInf(stats.QuantErrorBound(), 0) || math.IsNaN(stats.QuantErrorBound()) {
			t.Errorf("rejected %v leaked into the session's scales: bound %v", v, stats.QuantErrorBound())
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	f32 := open(32)
	if _, _, err := f32.RunBatch(poisoned(float32(math.Inf(1)))); err != nil {
		t.Errorf("float32 session refused an infinity: %v", err)
	}
	if err := f32.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInstantiateRejectsMissingWeights(t *testing.T) {
	ir, _, _ := buildIR(t, "missing", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, tinyLeNetLayers(), 14)
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instantiate(spec, condorir.NewWeightSet()); err == nil {
		t.Fatal("expected missing-weights error")
	}
}

func TestInstantiateRejectsWrongWeightSize(t *testing.T) {
	ir, ws, _ := buildIR(t, "badw", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, tinyLeNetLayers(), 15)
	bad := tensor.New(4, 1, 5, 5) // conv1 should be 4x1x3x3
	ws.Put("conv1", condorir.EntryWeights, bad)
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instantiate(spec, ws); err == nil {
		t.Fatal("expected weight-size error")
	}
}

// TestInstantiateRejectsBadWindowGrid: a spec the executors cannot run fails
// when its weights load, not on the first batch. TC1's pool1 at a stride 3
// larger keeps its 6×6 output, whose windows no longer fit the input; a PE
// with no layers is refused too.
func TestInstantiateRejectsBadWindowGrid(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	var pool1 *LayerHW
	for _, pe := range spec.PEs {
		for li := range pe.Layers {
			if pe.Layers[li].Name == "pool1" {
				pool1 = &pe.Layers[li]
			}
		}
	}
	if pool1 == nil {
		t.Fatal("TC1 has no pool1")
	}
	pool1.Stride += 3
	_, err = Instantiate(spec, ws)
	if err == nil || !strings.Contains(err.Error(), "layer \"pool1\"") || !strings.Contains(err.Error(), "do not fit") {
		t.Fatalf("Instantiate = %v, want pool1's window grid refused", err)
	}
	pool1.Stride -= 3
	spec.PEs = append(spec.PEs, &PE{ID: "pe9"}) // a PE with no layers, as a crafted xclbin can carry
	if _, err := Instantiate(spec, ws); err == nil || !strings.Contains(err.Error(), "pe9: no layers") {
		t.Fatalf("Instantiate = %v, want the empty PE refused", err)
	}
}

func TestRunEmptyBatch(t *testing.T) {
	ir, ws, _ := buildIR(t, "empty", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, tinyLeNetLayers(), 16)
	spec, _ := BuildSpec(ir)
	acc, _ := Instantiate(spec, ws)
	outs, stats, err := acc.Run(nil)
	if err != nil || len(outs) != 0 || stats.Images != 0 {
		t.Fatalf("empty batch: %v %v %v", outs, stats, err)
	}
}

func TestStatsMACCount(t *testing.T) {
	layers := []condorir.Layer{
		{Name: "c", Type: "Convolution", KernelSize: 3, NumOutput: 2, Bias: false, PEGroup: -1},
	}
	ir, ws, net := buildIR(t, "macs", condorir.InputShape{Channels: 2, Height: 6, Width: 6}, layers, 17)
	stats := runAndCompare(t, ir, ws, net, 1, 18)
	// MACs = OutH*OutW*OutC*InC*K*K = 4*4*2*2*9 = 576.
	if got := stats.TotalMACs(); got != 576 {
		t.Fatalf("MACs = %d, want 576", got)
	}
	// GFLOPS convention: 2 FLOPs per MAC equals the nn package accounting.
	if flops := net.TotalFLOPs(); flops != 2*576 {
		t.Fatalf("reference FLOPs = %d", flops)
	}
}

func TestStatsCyclesMatchModel(t *testing.T) {
	ir, ws, _ := buildIR(t, "cyc", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, tinyLeNetLayers(), 19)
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	imgs := randomImages(4, nn.Shape{Channels: 1, Height: 12, Width: 12}, 20)
	_, stats, err := acc.Run(imgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pe := range spec.PEs {
		want := pe.CyclesPerImage(spec.Bits())
		if got := stats.PEs[i].CyclesPerImage(); got != want {
			t.Fatalf("PE %s cycles/image = %d, model says %d", pe.ID, got, want)
		}
	}
	if stats.BottleneckCycles() == 0 {
		t.Fatal("bottleneck cycles should be positive")
	}
}

func TestWeightStreamingTrafficAccounted(t *testing.T) {
	layers := []condorir.Layer{
		{Name: "ip", Type: "InnerProduct", NumOutput: 4, Bias: false, PEGroup: -1},
	}
	ir, ws, _ := buildIR(t, "traffic", condorir.InputShape{Channels: 1, Height: 4, Width: 4}, layers, 21)
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	spec.PEs[0].WeightsOnChip = false // stream weights per image
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	imgs := randomImages(3, nn.Shape{Channels: 1, Height: 4, Width: 4}, 22)
	_, stats, err := acc.Run(imgs)
	if err != nil {
		t.Fatal(err)
	}
	// Weight stream: 4*16 words * 4 bytes * 3 images, plus input reads.
	wantWeightBytes := int64(4*16*4) * 3
	inputBytes := int64(16*4) * 3
	if stats.DRAM.BytesRead < wantWeightBytes+inputBytes {
		t.Fatalf("DDR reads %d, want at least %d", stats.DRAM.BytesRead, wantWeightBytes+inputBytes)
	}
}

// Property: random small network chains computed by the fabric match the
// reference engine.
func TestAcceleratorRandomNetworksProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := rng.Intn(6) + 8
		c := rng.Intn(2) + 1
		var layers []condorir.Layer
		// 1-2 feature layers.
		nFeat := rng.Intn(2) + 1
		curH := h
		for i := 0; i < nFeat && curH >= 4; i++ {
			if rng.Intn(2) == 0 {
				k := rng.Intn(2) + 2
				f := rng.Intn(3) + 1
				layers = append(layers, condorir.Layer{
					Name: "conv" + string(rune('a'+i)), Type: "Convolution",
					KernelSize: k, Stride: 1, NumOutput: f, Bias: rng.Intn(2) == 0, PEGroup: -1,
				})
				curH = curH - k + 1
			} else {
				layers = append(layers, condorir.Layer{
					Name: "pool" + string(rune('a'+i)), Type: "MaxPooling",
					KernelSize: 2, Stride: 2, PEGroup: -1,
				})
				curH /= 2
			}
		}
		layers = append(layers, condorir.Layer{
			Name: "fc", Type: "InnerProduct", NumOutput: rng.Intn(4) + 2, Bias: true, PEGroup: -1,
		})
		ir, ws, net := buildIR(nil, "prop", condorir.InputShape{Channels: c, Height: h, Width: h}, layers, seed)
		spec, err := BuildSpec(ir)
		if err != nil {
			return false
		}
		acc, err := Instantiate(spec, ws)
		if err != nil {
			return false
		}
		imgs := randomImages(2, net.Input, seed+1)
		outs, _, err := acc.Run(imgs)
		if err != nil {
			return false
		}
		for i := range imgs {
			want, err := net.Predict(imgs[i])
			if err != nil || !tensor.AllClose(outs[i], want, fabricTol) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunStatsStreams(t *testing.T) {
	ir, ws, net := buildIR(t, "streams", condorir.InputShape{Channels: 1, Height: 12, Width: 12}, tinyLeNetLayers(), 23)
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	batch := 2
	_, stats, err := acc.Run(randomImages(batch, net.Input, 24))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Streams) != len(spec.PEs)+1 {
		t.Fatalf("stream stats count %d", len(stats.Streams))
	}
	// The input stream carried exactly batch * input volume words; every
	// stream was fully drained; occupancy never exceeded the depth (+1
	// transient tolerance of the high-water sampling).
	in := stats.Streams[0]
	if in.Pushes != int64(batch*net.Input.Volume()) {
		t.Fatalf("input stream pushes = %d", in.Pushes)
	}
	for _, s := range stats.Streams {
		if s.Pushes != s.Pops {
			t.Fatalf("stream %s not drained: %d pushed, %d popped", s.Name, s.Pushes, s.Pops)
		}
		if s.MaxOccupancy > int64(s.Depth)+1 {
			t.Fatalf("stream %s occupancy %d over depth %d", s.Name, s.MaxOccupancy, s.Depth)
		}
	}
	// The output stream carried batch * output volume words.
	outShape := spec.OutputShape()
	out := stats.Streams[len(stats.Streams)-1]
	if out.Pushes != int64(batch*outShape.Volume()) {
		t.Fatalf("output stream pushes = %d", out.Pushes)
	}
}
