package onnx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"condor/internal/nn"
	"condor/internal/tensor"
)

// lenetLike builds a small LeNet-style network with seeded weights.
func lenetLike(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	randT := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		t.FillRandom(rng, 0.4)
		return t
	}
	return &nn.Network{
		Name:  "onnx-lenet",
		Input: nn.Shape{Channels: 1, Height: 12, Width: 12},
		Layers: []*nn.Layer{
			{Name: "conv1", Kind: nn.Conv, Kernel: 3, Stride: 1, OutputCount: 4,
				Weights: randT(4, 1, 3, 3), Bias: randT(4)},
			{Name: "relu1", Kind: nn.ReLU},
			{Name: "pool1", Kind: nn.MaxPool, Kernel: 2, Stride: 2},
			{Name: "conv2", Kind: nn.Conv, Kernel: 3, Stride: 1, Pad: 1, OutputCount: 6,
				Weights: randT(6, 4, 3, 3), Bias: randT(6)},
			{Name: "pool2", Kind: nn.AvgPool, Kernel: 5, Stride: 5},
			{Name: "fc1", Kind: nn.FullyConnected, OutputCount: 5,
				Weights: randT(5, 6), Bias: randT(5)},
			{Name: "prob", Kind: nn.LogSoftMax},
		},
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	net := lenetLike(1)
	data, err := Encode(net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Producer != "condor" || m.IRVersion != 3 || m.OpsetVersion != 9 {
		t.Fatalf("model header %+v", m)
	}
	if m.Graph.Name != "onnx-lenet" || m.Graph.InputName != "data" || m.Graph.OutputName != "output" {
		t.Fatalf("graph identity %+v", m.Graph.Name)
	}
	// 7 layers + 1 Flatten node.
	if len(m.Graph.Nodes) != 8 {
		t.Fatalf("node count %d", len(m.Graph.Nodes))
	}
	// Initializers: conv1 W/B, conv2 W/B, fc1 W/B.
	if len(m.Graph.Initializers) != 6 {
		t.Fatalf("initializer count %d", len(m.Graph.Initializers))
	}
}

func TestToNetworkComputesIdentically(t *testing.T) {
	net := lenetLike(2)
	data, err := Encode(net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	net2, err := m.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if net2.Input != net.Input {
		t.Fatalf("input %v vs %v", net2.Input, net.Input)
	}
	img := tensor.New(1, 12, 12)
	img.FillRandom(rand.New(rand.NewSource(3)), 1)
	a, err := net.Predict(img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net2.Predict(img)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatalf("ONNX round-tripped network differs by %g", tensor.MaxAbsDiff(a, b))
	}
}

// Property: encode→parse→convert preserves exact inference for random
// conv/pool/fc chains.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		net := lenetLike(seed)
		data, err := Encode(net)
		if err != nil {
			return false
		}
		m, err := Parse(data)
		if err != nil {
			return false
		}
		net2, err := m.ToNetwork()
		if err != nil {
			return false
		}
		img := tensor.New(1, 12, 12)
		img.FillRandom(rand.New(rand.NewSource(seed+99)), 1)
		a, err := net.Predict(img)
		if err != nil {
			return false
		}
		b, err := net2.Predict(img)
		if err != nil {
			return false
		}
		return tensor.MaxAbsDiff(a, b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmTransposeHandling(t *testing.T) {
	// Build a Gemm with transB=0 (W stored [in, out]) by hand and check the
	// importer transposes it.
	w := []float32{
		1, 2, // in0 -> out0, out1
		3, 4, // in1 -> out0, out1
		5, 6, // in2
	}
	var graph []byte
	graph = appendTestGraphHeader(&graph, "gemm-test", []int{1, 3, 1, 1})
	wT := encodeTensor("W", []int{3, 2}, w)
	graph = appendBytes(graph, graphInitializer, wT)
	node := encodeNode("fc", "Gemm", []string{"data", "W"}, []string{"output"}, nil) // transB absent = 0
	graph = appendBytes(graph, graphNode, node)
	graph = appendBytes(graph, graphOutput, encodeValueInfo("output", []int{1, 2, 1, 1}))
	model := wrapGraph(graph)

	m, err := Parse(model)
	if err != nil {
		t.Fatal(err)
	}
	net, err := m.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.FromSlice([]float32{1, 1, 1}, 3, 1, 1)
	out, err := net.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	// out0 = 1+3+5 = 9; out1 = 2+4+6 = 12.
	if out.At(0, 0, 0) != 9 || out.At(1, 0, 0) != 12 {
		t.Fatalf("gemm outputs %v %v", out.At(0, 0, 0), out.At(1, 0, 0))
	}
}

func TestRejectUnsupportedOperator(t *testing.T) {
	var graph []byte
	graph = appendTestGraphHeader(&graph, "bad", []int{1, 1, 4, 4})
	node := encodeNode("l", "LSTM", []string{"data"}, []string{"output"}, nil)
	graph = appendBytes(graph, graphNode, node)
	m, err := Parse(wrapGraph(graph))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ToNetwork(); err == nil || !strings.Contains(err.Error(), "unsupported operator") {
		t.Fatalf("expected unsupported-operator error, got %v", err)
	}
}

func TestRejectNonLinearGraph(t *testing.T) {
	var graph []byte
	graph = appendTestGraphHeader(&graph, "branch", []int{1, 1, 4, 4})
	graph = appendBytes(graph, graphNode, encodeNode("a", "Relu", []string{"data"}, []string{"x"}, nil))
	graph = appendBytes(graph, graphNode, encodeNode("b", "Relu", []string{"data"}, []string{"output"}, nil))
	m, err := Parse(wrapGraph(graph))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ToNetwork(); err == nil {
		t.Fatal("expected linear-graph error")
	}
}

func TestRejectGroupedConv(t *testing.T) {
	net := lenetLike(4)
	data, err := Encode(net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// Inject group=2 on the first conv node.
	for i := range m.Graph.Nodes {
		if m.Graph.Nodes[i].OpType == "Conv" {
			m.Graph.Nodes[i].Attrs["group"] = Attribute{Name: "group", I: 2}
			break
		}
	}
	if _, err := m.ToNetwork(); err == nil {
		t.Fatal("expected grouped-conv rejection")
	}
}

func TestRejectNonSquareGeometry(t *testing.T) {
	var graph []byte
	graph = appendTestGraphHeader(&graph, "rect", []int{1, 1, 8, 8})
	node := encodeNode("p", "MaxPool", []string{"data"}, []string{"output"}, []attrSpec{
		{name: "kernel_shape", ints: []int64{2, 3}},
	})
	graph = appendBytes(graph, graphNode, node)
	m, err := Parse(wrapGraph(graph))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ToNetwork(); err == nil || !strings.Contains(err.Error(), "non-square") {
		t.Fatalf("expected non-square rejection, got %v", err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte{0xff, 0xff}); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := Parse(nil); err == nil {
		t.Fatal("expected no-graph error")
	}
}

func TestRawDataTensors(t *testing.T) {
	// Tensors with raw_data instead of float_data must parse identically.
	raw := []byte{0, 0, 128, 63, 0, 0, 0, 64} // [1.0, 2.0] little-endian
	var tb []byte
	tb = appendVarint(tb, tensorDims, 2)
	tb = appendVarint(tb, tensorDataType, dataTypeFloat)
	tb = appendBytes(tb, tensorRawData, raw)
	tb = appendString(tb, tensorName, "T")
	msg := decodeMsg(t, tb)
	tt, err := parseTensor(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Data) != 2 || tt.Data[0] != 1 || tt.Data[1] != 2 {
		t.Fatalf("raw tensor %v", tt.Data)
	}
}

// TestRawDataBitExact: raw_data is the values' little-endian bits, so NaN
// payloads, −0, ±Inf and the smallest subnormal decode unchanged.
func TestRawDataBitExact(t *testing.T) {
	bits := []uint32{0x7fc00001, 0x7f800001, 0xffbfffff, 0x80000000, 0x7f800000, 0xff800000, 0x00000001, 0x7f7fffff}
	var raw []byte
	for _, u := range bits {
		raw = binary.LittleEndian.AppendUint32(raw, u)
	}
	var tb []byte
	tb = appendVarint(tb, tensorDims, uint64(len(bits)))
	tb = appendVarint(tb, tensorDataType, dataTypeFloat)
	tb = appendBytes(tb, tensorRawData, raw)
	tb = appendString(tb, tensorName, "T")
	tt, err := parseTensor(decodeMsg(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Data) != len(bits) {
		t.Fatalf("raw tensor has %d values, want %d", len(tt.Data), len(bits))
	}
	for i, v := range tt.Data {
		if math.Float32bits(v) != bits[i] {
			t.Errorf("value %d decoded to %#08x, want %#08x", i, math.Float32bits(v), bits[i])
		}
	}
}
