// Package onnx implements the ONNX frontend the paper lists as future work
// ("we are considering adding support to the ONNX format"). It decodes the
// ONNX protobuf wire format (ModelProto → GraphProto → NodeProto/
// TensorProto) with the same from-scratch codec the Caffe frontend uses,
// supports the operator subset Condor can map onto the dataflow template
// (Conv, MaxPool, AveragePool, Gemm, Relu, Sigmoid, Tanh, Softmax,
// LogSoftmax, Flatten, Dropout), and converts models into nn networks ready
// for the core logic. An encoder is provided so the test-suite and the
// model generators can produce genuine ONNX files.
package onnx

import (
	"fmt"

	"condor/internal/nn"
	"condor/internal/proto"
	"condor/internal/tensor"
)

// Field numbers from onnx.proto (IR version 3+).
const (
	// ModelProto
	modelIRVersion = 1
	modelProducer  = 2
	modelGraph     = 7
	modelOpset     = 8

	// OperatorSetIdProto
	opsetDomain  = 1
	opsetVersion = 2

	// GraphProto
	graphNode        = 1
	graphName        = 2
	graphInitializer = 5
	graphInput       = 11
	graphOutput      = 12

	// NodeProto
	nodeInput     = 1
	nodeOutput    = 2
	nodeName      = 3
	nodeOpType    = 4
	nodeAttribute = 5

	// AttributeProto
	attrName   = 1
	attrF      = 2
	attrI      = 3
	attrS      = 4
	attrT      = 5
	attrFloats = 7
	attrInts   = 8
	attrType   = 20

	// TensorProto
	tensorDims      = 1
	tensorDataType  = 2
	tensorFloatData = 4
	tensorName      = 8
	tensorRawData   = 9

	// ValueInfoProto / TypeProto / TensorShapeProto
	valueInfoName   = 1
	valueInfoType   = 2
	typeTensorType  = 1
	tensorTypeElem  = 1
	tensorTypeShape = 2
	shapeDim        = 1
	dimValue        = 1
)

// TensorProto data types.
const dataTypeFloat = 1

// Attribute is one decoded node attribute.
type Attribute struct {
	Name   string
	I      int64
	F      float32
	S      string
	Ints   []int64
	Floats []float32
	Tensor *Tensor
}

// Node is one graph operator.
type Node struct {
	Name    string
	OpType  string
	Inputs  []string
	Outputs []string
	Attrs   map[string]Attribute
}

// AttrInts returns an integer-list attribute (nil when absent).
func (n *Node) AttrInts(name string) []int64 {
	if a, ok := n.Attrs[name]; ok {
		return a.Ints
	}
	return nil
}

// AttrInt returns an integer attribute with a default.
func (n *Node) AttrInt(name string, def int64) int64 {
	if a, ok := n.Attrs[name]; ok {
		return a.I
	}
	return def
}

// AttrFloat returns a float attribute with a default.
func (n *Node) AttrFloat(name string, def float32) float32 {
	if a, ok := n.Attrs[name]; ok {
		return a.F
	}
	return def
}

// Tensor is a named constant (an initializer: weights or bias).
type Tensor struct {
	Name string
	Dims []int
	Data []float32
}

// Graph is the decoded ONNX graph.
type Graph struct {
	Name         string
	Nodes        []Node
	Initializers map[string]*Tensor
	InputName    string
	InputShape   []int // NCHW (or CHW)
	OutputName   string
}

// Model is the decoded ONNX model.
type Model struct {
	IRVersion    int64
	OpsetVersion int64
	Producer     string
	Graph        Graph
}

// Parse decodes a binary ONNX model.
func Parse(data []byte) (*Model, error) {
	msg, err := proto.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("onnx: malformed model: %w", err)
	}
	m := &Model{}
	if v, ok := msg.GetUint(modelIRVersion); ok {
		m.IRVersion = int64(v)
	}
	m.Producer, _ = msg.GetString(modelProducer)
	if opsets, err := msg.GetMessages(modelOpset); err == nil {
		for _, o := range opsets {
			if d, _ := o.GetString(opsetDomain); d == "" {
				if v, ok := o.GetUint(opsetVersion); ok {
					m.OpsetVersion = int64(v)
				}
			}
		}
	}
	gm, err := msg.GetMessage(modelGraph)
	if err != nil {
		return nil, err
	}
	if gm == nil {
		return nil, fmt.Errorf("onnx: model has no graph")
	}
	if err := parseGraph(gm, &m.Graph); err != nil {
		return nil, err
	}
	return m, nil
}

func parseGraph(gm proto.Message, g *Graph) error {
	g.Name, _ = gm.GetString(graphName)
	g.Initializers = make(map[string]*Tensor)

	inits, err := gm.GetMessages(graphInitializer)
	if err != nil {
		return err
	}
	for _, tm := range inits {
		t, err := parseTensor(tm)
		if err != nil {
			return err
		}
		g.Initializers[t.Name] = t
	}

	nodes, err := gm.GetMessages(graphNode)
	if err != nil {
		return err
	}
	for i, nm := range nodes {
		n, err := parseNode(nm)
		if err != nil {
			return fmt.Errorf("onnx: node %d: %w", i, err)
		}
		g.Nodes = append(g.Nodes, n)
	}

	// Graph input: the first input that is NOT an initializer is the data
	// input.
	inputs, err := gm.GetMessages(graphInput)
	if err != nil {
		return err
	}
	for _, vi := range inputs {
		name, _ := vi.GetString(valueInfoName)
		if _, isInit := g.Initializers[name]; isInit {
			continue
		}
		g.InputName = name
		g.InputShape, err = parseValueInfoShape(vi)
		if err != nil {
			return err
		}
		break
	}
	outputs, err := gm.GetMessages(graphOutput)
	if err != nil {
		return err
	}
	if len(outputs) > 0 {
		g.OutputName, _ = outputs[0].GetString(valueInfoName)
	}
	return nil
}

func parseValueInfoShape(vi proto.Message) ([]int, error) {
	tp, err := vi.GetMessage(valueInfoType)
	if err != nil || tp == nil {
		return nil, err
	}
	tt, err := tp.GetMessage(typeTensorType)
	if err != nil || tt == nil {
		return nil, err
	}
	sh, err := tt.GetMessage(tensorTypeShape)
	if err != nil || sh == nil {
		return nil, err
	}
	dims, err := sh.GetMessages(shapeDim)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, len(dims))
	for _, d := range dims {
		v, _ := d.GetUint(dimValue)
		out = append(out, int(v))
	}
	return out, nil
}

func parseNode(nm proto.Message) (Node, error) {
	n := Node{Attrs: make(map[string]Attribute)}
	n.Name, _ = nm.GetString(nodeName)
	n.OpType, _ = nm.GetString(nodeOpType)
	n.Inputs = nm.GetStrings(nodeInput)
	n.Outputs = nm.GetStrings(nodeOutput)
	attrs, err := nm.GetMessages(nodeAttribute)
	if err != nil {
		return n, err
	}
	for _, am := range attrs {
		a := Attribute{}
		a.Name, _ = am.GetString(attrName)
		if v, ok := am.GetUint(attrI); ok {
			a.I = int64(v)
		}
		if v, ok := am.GetFloat(attrF); ok {
			a.F = v
		}
		// attrS and attrT are both length-delimited on field numbers 4/5,
		// so fetch them distinctly.
		for _, f := range am {
			switch {
			case f.Num == attrS && f.Wire == proto.WireBytes:
				a.S = string(f.Bytes)
			case f.Num == attrT && f.Wire == proto.WireBytes:
				sub, err := proto.Decode(f.Bytes)
				if err != nil {
					return n, err
				}
				t, err := parseTensor(sub)
				if err != nil {
					return n, err
				}
				a.Tensor = t
			}
		}
		ints, err := am.GetUints(attrInts)
		if err != nil {
			return n, err
		}
		for _, v := range ints {
			a.Ints = append(a.Ints, int64(v))
		}
		floats, err := am.GetFloats(attrFloats)
		if err != nil {
			return n, err
		}
		a.Floats = floats
		n.Attrs[a.Name] = a
	}
	return n, nil
}

func parseTensor(tm proto.Message) (*Tensor, error) {
	t := &Tensor{}
	t.Name, _ = tm.GetString(tensorName)
	dims, err := tm.GetUints(tensorDims)
	if err != nil {
		return nil, err
	}
	for _, d := range dims {
		t.Dims = append(t.Dims, int(d))
	}
	if dt := tm.GetInt(tensorDataType, dataTypeFloat); dt != dataTypeFloat {
		return nil, fmt.Errorf("onnx: tensor %q has unsupported data type %d (only float32)", t.Name, dt)
	}
	// float_data (packed floats) or raw_data (the values' little-endian
	// bytes, copied straight into their byte view).
	t.Data, err = tm.GetFloats(tensorFloatData)
	if err != nil {
		return nil, err
	}
	if len(t.Data) == 0 {
		if raw, ok := tm.GetString(tensorRawData); ok {
			if len(raw)%4 != 0 {
				return nil, fmt.Errorf("onnx: tensor %q raw_data of %d bytes is not float32", t.Name, len(raw))
			}
			t.Data = make([]float32, len(raw)/4)
			copy(tensor.LEBytes(t.Data), raw)
		}
	}
	vol := 1
	for _, d := range t.Dims {
		vol *= d
	}
	if len(t.Data) != vol {
		return nil, fmt.Errorf("onnx: tensor %q has %d values, dims %v need %d", t.Name, len(t.Data), t.Dims, vol)
	}
	return t, nil
}

// ToNetwork converts the model's graph into an nn.Network. The graph must
// be a linear operator chain (the topology class Condor's template
// supports), with Flatten/Dropout/Reshape treated as identity.
func (m *Model) ToNetwork() (*nn.Network, error) {
	g := &m.Graph
	net := &nn.Network{Name: g.Name}
	switch len(g.InputShape) {
	case 4:
		net.Input = nn.Shape{Channels: g.InputShape[1], Height: g.InputShape[2], Width: g.InputShape[3]}
	case 3:
		net.Input = nn.Shape{Channels: g.InputShape[0], Height: g.InputShape[1], Width: g.InputShape[2]}
	default:
		return nil, fmt.Errorf("onnx: graph input %q has shape %v, want rank 3 or 4", g.InputName, g.InputShape)
	}

	cur := g.InputName
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if len(n.Inputs) == 0 || len(n.Outputs) == 0 {
			return nil, fmt.Errorf("onnx: node %q has no inputs/outputs", n.Name)
		}
		if n.Inputs[0] != cur {
			return nil, fmt.Errorf("onnx: node %q consumes %q, but the chain produces %q (only linear graphs are supported)",
				n.Name, n.Inputs[0], cur)
		}
		layer, err := m.convertNode(n)
		if err != nil {
			return nil, err
		}
		if layer != nil {
			net.Layers = append(net.Layers, layer)
		}
		cur = n.Outputs[0]
	}
	if g.OutputName != "" && cur != g.OutputName {
		return nil, fmt.Errorf("onnx: chain ends at %q, graph output is %q", cur, g.OutputName)
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("onnx: converted network invalid: %w", err)
	}
	return net, nil
}

// convertNode maps one ONNX operator onto an nn layer (nil for identities).
func (m *Model) convertNode(n *Node) (*nn.Layer, error) {
	name := n.Name
	if name == "" {
		name = n.OpType + "_" + n.Outputs[0]
	}
	switch n.OpType {
	case "Conv":
		return m.convertConv(n, name)
	case "MaxPool", "AveragePool":
		return m.convertPool(n, name)
	case "Gemm":
		return m.convertGemm(n, name)
	case "Relu":
		return &nn.Layer{Name: name, Kind: nn.ReLU}, nil
	case "Sigmoid":
		return &nn.Layer{Name: name, Kind: nn.Sigmoid}, nil
	case "Tanh":
		return &nn.Layer{Name: name, Kind: nn.TanH}, nil
	case "Softmax":
		return &nn.Layer{Name: name, Kind: nn.SoftMax}, nil
	case "LogSoftmax":
		return &nn.Layer{Name: name, Kind: nn.LogSoftMax}, nil
	case "Flatten", "Reshape", "Dropout", "Identity":
		return nil, nil // identity at inference time in this topology class
	default:
		return nil, fmt.Errorf("onnx: unsupported operator %q (node %q)", n.OpType, n.Name)
	}
}

func (m *Model) initializer(name string) (*Tensor, error) {
	t, ok := m.Graph.Initializers[name]
	if !ok {
		return nil, fmt.Errorf("onnx: initializer %q not found", name)
	}
	return t, nil
}

// squareAttr extracts a square geometry attribute (kernel_shape, strides,
// pads) validating symmetry.
func squareAttr(n *Node, attr string, def int) (int, error) {
	vals := n.AttrInts(attr)
	if len(vals) == 0 {
		return def, nil
	}
	first := vals[0]
	for _, v := range vals {
		if v != first {
			return 0, fmt.Errorf("onnx: node %q: non-square %s %v not supported", n.Name, attr, vals)
		}
	}
	return int(first), nil
}

func (m *Model) convertConv(n *Node, name string) (*nn.Layer, error) {
	if len(n.Inputs) < 2 {
		return nil, fmt.Errorf("onnx: Conv %q needs a weight initializer", n.Name)
	}
	if g := n.AttrInt("group", 1); g != 1 {
		return nil, fmt.Errorf("onnx: Conv %q: grouped convolutions (group=%d) not supported", n.Name, g)
	}
	w, err := m.initializer(n.Inputs[1])
	if err != nil {
		return nil, err
	}
	if len(w.Dims) != 4 {
		return nil, fmt.Errorf("onnx: Conv %q weight rank %d, want 4", n.Name, len(w.Dims))
	}
	k, err := squareAttr(n, "kernel_shape", w.Dims[2])
	if err != nil {
		return nil, err
	}
	stride, err := squareAttr(n, "strides", 1)
	if err != nil {
		return nil, err
	}
	pad, err := squareAttr(n, "pads", 0)
	if err != nil {
		return nil, err
	}
	l := &nn.Layer{
		Name: name, Kind: nn.Conv,
		Kernel: k, Stride: stride, Pad: pad,
		OutputCount: w.Dims[0],
		Weights:     tensor.FromSlice(w.Data, w.Dims...),
	}
	if len(n.Inputs) > 2 {
		b, err := m.initializer(n.Inputs[2])
		if err != nil {
			return nil, err
		}
		l.Bias = tensor.FromSlice(b.Data, len(b.Data))
	}
	return l, nil
}

func (m *Model) convertPool(n *Node, name string) (*nn.Layer, error) {
	k, err := squareAttr(n, "kernel_shape", 0)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("onnx: %s %q missing kernel_shape", n.OpType, n.Name)
	}
	stride, err := squareAttr(n, "strides", k)
	if err != nil {
		return nil, err
	}
	pad, err := squareAttr(n, "pads", 0)
	if err != nil {
		return nil, err
	}
	kind := nn.MaxPool
	if n.OpType == "AveragePool" {
		kind = nn.AvgPool
	}
	return &nn.Layer{Name: name, Kind: kind, Kernel: k, Stride: stride, Pad: pad}, nil
}

func (m *Model) convertGemm(n *Node, name string) (*nn.Layer, error) {
	if len(n.Inputs) < 2 {
		return nil, fmt.Errorf("onnx: Gemm %q needs a weight initializer", n.Name)
	}
	if a := n.AttrFloat("alpha", 1); a != 1 {
		return nil, fmt.Errorf("onnx: Gemm %q: alpha=%v not supported", n.Name, a)
	}
	if b := n.AttrFloat("beta", 1); b != 1 {
		return nil, fmt.Errorf("onnx: Gemm %q: beta=%v not supported", n.Name, b)
	}
	if ta := n.AttrInt("transA", 0); ta != 0 {
		return nil, fmt.Errorf("onnx: Gemm %q: transA not supported", n.Name)
	}
	w, err := m.initializer(n.Inputs[1])
	if err != nil {
		return nil, err
	}
	if len(w.Dims) != 2 {
		return nil, fmt.Errorf("onnx: Gemm %q weight rank %d, want 2", n.Name, len(w.Dims))
	}
	// Exporters emit either W[out,in] with transB=1 (the common case) or
	// W[in,out] with transB=0, which we transpose on import.
	var out, in int
	var data []float32
	if n.AttrInt("transB", 0) == 1 {
		out, in = w.Dims[0], w.Dims[1]
		data = w.Data
	} else {
		in, out = w.Dims[0], w.Dims[1]
		data = make([]float32, len(w.Data))
		for r := 0; r < in; r++ {
			for c := 0; c < out; c++ {
				data[c*in+r] = w.Data[r*out+c]
			}
		}
	}
	l := &nn.Layer{
		Name: name, Kind: nn.FullyConnected,
		OutputCount: out,
		Weights:     tensor.FromSlice(data, out, in),
	}
	if len(n.Inputs) > 2 {
		b, err := m.initializer(n.Inputs[2])
		if err != nil {
			return nil, err
		}
		l.Bias = tensor.FromSlice(b.Data, len(b.Data))
	}
	return l, nil
}
