package dataflow

import (
	"testing"

	"condor/internal/condorir"
	"condor/internal/nn"
)

func specIR() *condorir.Network {
	return &condorir.Network{
		Name: "spec-test", Board: "aws-f1-vu9p", FrequencyMHz: 150,
		Input: condorir.InputShape{Channels: 1, Height: 16, Width: 16},
		Layers: []condorir.Layer{
			{Name: "conv1", Type: "Convolution", KernelSize: 5, Stride: 1, NumOutput: 4, Bias: true, PEGroup: -1,
				Parallelism: condorir.Parallelism{In: 1, Out: 2}},
			{Name: "relu1", Type: "ReLU", PEGroup: -1},
			{Name: "pool1", Type: "MaxPooling", KernelSize: 2, Stride: 2, PEGroup: -1},
			{Name: "fc1", Type: "InnerProduct", NumOutput: 10, Bias: true, PEGroup: -1},
			{Name: "prob", Type: "LogSoftMax", PEGroup: -1},
		},
	}
}

func TestBuildSpecStructure(t *testing.T) {
	spec, err := BuildSpec(specIR())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "spec-test" || spec.Board != "aws-f1-vu9p" || spec.FreqMHz != 150 {
		t.Fatalf("spec identity wrong: %+v", spec)
	}
	if len(spec.PEs) != 3 {
		t.Fatalf("PE count = %d, want 3", len(spec.PEs))
	}
	pe0 := spec.PEs[0]
	if len(pe0.Layers) != 1 || pe0.Layers[0].Name != "conv1" {
		t.Fatalf("pe0 layers wrong: %+v", pe0.Layers)
	}
	if pe0.Layers[0].Activation != nn.ReLU {
		t.Fatal("relu1 should fold into conv1's PE")
	}
	if pe0.Par.Out != 2 {
		t.Fatalf("pe0 parallelism = %+v", pe0.Par)
	}
	if pe0.Chain == nil || pe0.Chain.Kernel != 5 || pe0.Chain.PaddedW != 16 {
		t.Fatalf("pe0 chain = %+v", pe0.Chain)
	}
	pe2 := spec.PEs[2]
	if pe2.Layers[0].Kind != nn.FullyConnected || pe2.Layers[0].Normalize != nn.LogSoftMax {
		t.Fatalf("fc PE wrong: %+v", pe2.Layers[0])
	}
	if pe2.Chain != nil {
		t.Fatal("FC PE must not have a filter chain")
	}
	if got := spec.OutputShape(); got != (nn.Shape{Channels: 10, Height: 1, Width: 1}) {
		t.Fatalf("output shape %v", got)
	}
}

func TestBuildSpecFusedChainSizing(t *testing.T) {
	ir := specIR()
	// Fuse conv1 (k=5, padded width 16) with pool1 (k=2, width 12).
	ir.Layers[0].PEGroup = 0
	ir.Layers[2].PEGroup = 0
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.PEs) != 2 {
		t.Fatalf("PE count = %d", len(spec.PEs))
	}
	chain := spec.PEs[0].Chain
	// Chain sized for the largest window (5) and the widest padded input (16).
	if chain.Kernel != 5 || chain.PaddedW != 16 {
		t.Fatalf("fused chain = %+v", chain)
	}
}

func TestBuildSpecParallelismIsMaxOverFusedLayers(t *testing.T) {
	ir := specIR()
	ir.Layers[0].PEGroup = 0
	ir.Layers[2].PEGroup = 0
	ir.Layers[2].Parallelism = condorir.Parallelism{In: 4, Out: 1}
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	if spec.PEs[0].Par != (condorir.Parallelism{In: 4, Out: 2}) {
		t.Fatalf("fused parallelism = %+v", spec.PEs[0].Par)
	}
}

func TestBuildSpecRejectsInvalidIR(t *testing.T) {
	ir := specIR()
	ir.FrequencyMHz = 0
	if _, err := BuildSpec(ir); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestPEWeightAndPartialWords(t *testing.T) {
	spec, err := BuildSpec(specIR())
	if err != nil {
		t.Fatal(err)
	}
	s0 := spec.PEs[0].Schedule(0, 32)
	// conv1: 4*1*5*5 weights + 4 bias.
	if s0.WeightWords != 104 {
		t.Fatalf("conv weight words = %d, want 104", s0.WeightWords)
	}
	// partials: full output volume 4*12*12.
	if s0.PartialWords != 576 {
		t.Fatalf("conv partial words = %d, want 576", s0.PartialWords)
	}
	s2 := spec.PEs[2].Schedule(0, 32)
	// fc1: 10*(4*6*6) + 10 bias... input of fc1 is pool1 output 4x6x6=144.
	if s2.WeightWords != int64(10*144+10) {
		t.Fatalf("fc weight words = %d", s2.WeightWords)
	}
	if s2.PartialWords != 10 {
		t.Fatalf("fc partial words = %d", s2.PartialWords)
	}
}

// layerCycles lowers l alone on a PE of parallelism par, at 32 bits.
func layerCycles(l *LayerHW, par condorir.Parallelism) int64 {
	pe := &PE{Layers: []LayerHW{*l}, Par: par}
	return pe.Schedule(0, 32).Cycles()
}

func TestLayerCyclesModel(t *testing.T) {
	conv := &LayerHW{
		Name: "c", Kind: nn.Conv, Kernel: 3, Stride: 1, Pad: 0,
		InShape:    nn.Shape{Channels: 4, Height: 10, Width: 10},
		OutShape:   nn.Shape{Channels: 8, Height: 8, Width: 8},
		Activation: NoActivation, Normalize: NoActivation,
	}
	seq := condorir.Parallelism{In: 1, Out: 1}
	// compute = 64*8 = 512 > stream = 100 → 4 groups * 512 + fill.
	want := int64(4*512) + chainFill(conv)
	if got := layerCycles(conv, seq); got != want {
		t.Fatalf("conv cycles = %d, want %d", got, want)
	}
	// With Out=8 the compute term collapses to 64 < stream 100 → stream-bound.
	par := condorir.Parallelism{In: 1, Out: 8}
	want = int64(4*100) + chainFill(conv)
	if got := layerCycles(conv, par); got != want {
		t.Fatalf("parallel conv cycles = %d, want %d", got, want)
	}
	// With In=4 as well, one group.
	par = condorir.Parallelism{In: 4, Out: 8}
	want = int64(100) + chainFill(conv)
	if got := layerCycles(conv, par); got != want {
		t.Fatalf("fully parallel conv cycles = %d, want %d", got, want)
	}

	pool := &LayerHW{
		Name: "p", Kind: nn.MaxPool, Kernel: 2, Stride: 2,
		InShape:    nn.Shape{Channels: 4, Height: 10, Width: 10},
		OutShape:   nn.Shape{Channels: 4, Height: 5, Width: 5},
		Activation: NoActivation, Normalize: NoActivation,
	}
	// Pooling is stream-bound: 4 groups * 100.
	want = int64(4*100) + chainFill(pool)
	if got := layerCycles(pool, seq); got != want {
		t.Fatalf("pool cycles = %d, want %d", got, want)
	}

	fc := &LayerHW{
		Name: "f", Kind: nn.FullyConnected,
		InShape:    nn.Shape{Channels: 100, Height: 1, Width: 1},
		OutShape:   nn.Shape{Channels: 10, Height: 1, Width: 1},
		Activation: NoActivation, Normalize: NoActivation,
	}
	want = int64(100*10) + fcPipelineFill
	if got := layerCycles(fc, seq); got != want {
		t.Fatalf("fc cycles = %d, want %d", got, want)
	}
	// Output parallelism divides the per-element loop.
	want = int64(100*5) + fcPipelineFill
	if got := layerCycles(fc, condorir.Parallelism{In: 1, Out: 2}); got != want {
		t.Fatalf("parallel fc cycles = %d, want %d", got, want)
	}
}

func TestNumLayersCountsFolded(t *testing.T) {
	spec, err := BuildSpec(specIR())
	if err != nil {
		t.Fatal(err)
	}
	// conv1 + relu1 + pool1 + fc1 + prob = 5 logical layers.
	if got := spec.NumLayers(); got != 5 {
		t.Fatalf("NumLayers = %d, want 5", got)
	}
}

func TestPackedWords(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 3: 1, 4: 1, 5: 2, 8: 2, 9: 3, 256: 64, 10: 3}
	for n, want := range cases {
		if got := packedWords(n); got != want {
			t.Errorf("packedWords(%d) = %d, want %d", n, got, want)
		}
	}
}
