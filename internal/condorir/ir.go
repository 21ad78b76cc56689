// Package condorir defines Condor's internal network representation: a JSON
// document that resembles the Caffe prototxt but additionally carries the
// hardware knobs the core logic needs (target board, operating frequency,
// per-layer parallelism and PE mapping), plus the external weights file
// format that is loaded dynamically at accelerator runtime — so a network
// can be re-trained without re-synthesising the accelerator, as the paper
// prescribes.
package condorir

import (
	"encoding/json"
	"fmt"
	"slices"

	"condor/internal/caffe"
	"condor/internal/nn"
	"condor/internal/tensor"
)

// Parallelism describes how many input feature maps a PE reads concurrently
// (In) and how many output feature maps it computes in parallel (Out) — the
// paper's inter-layer parallelism knobs. 1/1 is the sequential configuration
// used for the Table 1 deployments.
type Parallelism struct {
	In  int `json:"in"`
	Out int `json:"out"`
}

// Normalize maps the zero value to the sequential 1/1 configuration.
func (p Parallelism) Normalize() Parallelism {
	if p.In <= 0 {
		p.In = 1
	}
	if p.Out <= 0 {
		p.Out = 1
	}
	return p
}

// Layer is one layer entry of the network representation.
type Layer struct {
	Name string `json:"name"`
	// Type uses Caffe type strings: Convolution, MaxPooling, AvgPooling,
	// InnerProduct, ReLU, Sigmoid, TanH, Softmax, LogSoftMax.
	Type string `json:"type"`

	KernelSize int  `json:"kernel_size,omitempty"`
	Stride     int  `json:"stride,omitempty"`
	Pad        int  `json:"pad,omitempty"`
	NumOutput  int  `json:"num_output,omitempty"`
	Bias       bool `json:"bias,omitempty"`

	// Parallelism selects the feature-map port counts of the PE this layer
	// runs on.
	Parallelism Parallelism `json:"parallelism"`

	// Algorithm selects the convolution algorithm for Convolution layers:
	// "direct" (default when empty), "im2col_gemm" or "winograd_f23".
	// Design-space exploration writes its per-layer choice back here, so a
	// serialized network reproduces a DSE-selected build deterministically.
	Algorithm string `json:"algorithm,omitempty"`

	// PEGroup assigns the layer to a physical PE. Layers sharing a group are
	// fused onto one PE (time-multiplexed with an outer layer loop);
	// distinct groups are separate concurrently-active PEs. -1 selects the
	// default 1:1 mapping.
	PEGroup int `json:"pe_group"`
}

// InputShape is the CHW input declaration of the network.
type InputShape struct {
	Channels int `json:"channels"`
	Height   int `json:"height"`
	Width    int `json:"width"`
}

// Network is the Condor-specific network representation (the output of the
// frontend tier and the input of the core logic).
type Network struct {
	Name string `json:"name"`

	// Board is the deployment target identifier from the board catalogue
	// (e.g. "aws-f1-vu9p").
	Board string `json:"board"`

	// FrequencyMHz is the desired operating frequency; the achieved
	// frequency after timing closure may be lower.
	FrequencyMHz float64 `json:"frequency_mhz"`

	Input  InputShape `json:"input"`
	Layers []Layer    `json:"layers"`
}

// kindByType maps IR type strings to nn layer kinds.
var kindByType = map[string]nn.Kind{
	"Convolution":  nn.Conv,
	"MaxPooling":   nn.MaxPool,
	"AvgPooling":   nn.AvgPool,
	"InnerProduct": nn.FullyConnected,
	"ReLU":         nn.ReLU,
	"Sigmoid":      nn.Sigmoid,
	"TanH":         nn.TanH,
	"Softmax":      nn.SoftMax,
	"LogSoftMax":   nn.LogSoftMax,
}

// typeByKind is the inverse of kindByType.
var typeByKind = func() map[nn.Kind]string {
	m := make(map[nn.Kind]string, len(kindByType))
	for s, k := range kindByType {
		m[k] = s
	}
	return m
}()

// Kind resolves the layer's nn kind.
func (l *Layer) Kind() (nn.Kind, error) {
	k, ok := kindByType[l.Type]
	if !ok {
		return 0, fmt.Errorf("condorir: layer %q has unknown type %q", l.Name, l.Type)
	}
	return k, nil
}

// Validate checks structural well-formedness of the representation.
func (n *Network) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("condorir: network name is required")
	}
	if n.Input.Channels <= 0 || n.Input.Height <= 0 || n.Input.Width <= 0 {
		return fmt.Errorf("condorir: network %q has invalid input %+v", n.Name, n.Input)
	}
	if n.FrequencyMHz <= 0 {
		return fmt.Errorf("condorir: network %q requires a positive operating frequency", n.Name)
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("condorir: network %q has no layers", n.Name)
	}
	seen := make(map[string]bool, len(n.Layers))
	for i := range n.Layers {
		l := &n.Layers[i]
		if l.Name == "" {
			return fmt.Errorf("condorir: layer %d has no name", i)
		}
		if seen[l.Name] {
			return fmt.Errorf("condorir: duplicate layer name %q", l.Name)
		}
		seen[l.Name] = true
		kind, err := l.Kind()
		if err != nil {
			return err
		}
		if kind.IsFeatureExtraction() && l.KernelSize <= 0 {
			return fmt.Errorf("condorir: layer %q requires kernel_size", l.Name)
		}
		if (kind == nn.Conv || kind == nn.FullyConnected) && l.NumOutput <= 0 {
			return fmt.Errorf("condorir: layer %q requires num_output", l.Name)
		}
		p := l.Parallelism.Normalize()
		if p.In < 1 || p.Out < 1 {
			return fmt.Errorf("condorir: layer %q has invalid parallelism %+v", l.Name, l.Parallelism)
		}
		if l.Algorithm != "" {
			if kind != nn.Conv {
				return fmt.Errorf("condorir: layer %q: algorithm %q is only valid on Convolution layers", l.Name, l.Algorithm)
			}
			switch l.Algorithm {
			case "direct", "im2col_gemm", "winograd_f23":
			default:
				return fmt.Errorf("condorir: layer %q: unknown algorithm %q (want direct, im2col_gemm or winograd_f23)", l.Name, l.Algorithm)
			}
		}
	}
	// Check shape propagation by building a weightless skeleton.
	if _, err := n.Shapes(); err != nil {
		return err
	}
	return nil
}

// Shapes returns the input shape of every layer plus the final output shape
// (len(Layers)+1 entries).
func (n *Network) Shapes() ([]nn.Shape, error) {
	shapes := make([]nn.Shape, 0, len(n.Layers)+1)
	cur := nn.Shape{Channels: n.Input.Channels, Height: n.Input.Height, Width: n.Input.Width}
	shapes = append(shapes, cur)
	for i := range n.Layers {
		l := &n.Layers[i]
		kind, err := l.Kind()
		if err != nil {
			return nil, err
		}
		skel := nn.Layer{
			Name: l.Name, Kind: kind,
			Kernel: l.KernelSize, Stride: defaultStride(l), Pad: l.Pad,
			OutputCount: l.NumOutput,
		}
		cur, err = skel.OutputShape(cur)
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, cur)
	}
	return shapes, nil
}

func defaultStride(l *Layer) int {
	if l.Stride <= 0 {
		return 1
	}
	return l.Stride
}

// MarshalJSON is the canonical serialisation (indented for readability, as
// the format is user-editable per the paper's manual input method).
func (n *Network) ToJSON() ([]byte, error) {
	return json.MarshalIndent(n, "", "  ")
}

// FromJSON parses and validates a network representation document.
func FromJSON(data []byte) (*Network, error) {
	var n Network
	if err := json.Unmarshal(data, &n); err != nil {
		return nil, fmt.Errorf("condorir: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// FromCaffe translates a parsed Caffe model into the Condor representation
// plus its weight set (frontend "Input Analysis" step). Board and frequency
// are the deployment hints supplied alongside the model.
func FromCaffe(m *caffe.Model, board string, freqMHz float64) (*Network, *WeightSet, error) {
	net, err := m.ToNetwork()
	if err != nil {
		return nil, nil, err
	}
	return FromNN(net, board, freqMHz)
}

// FromNN translates an nn.Network (with weights attached) into the IR and
// weight set. The weight set shares the network's weight and bias storage
// (only the shapes are copied): every caller drops the network right after,
// and nothing downstream writes into a weight set.
func FromNN(net *nn.Network, board string, freqMHz float64) (*Network, *WeightSet, error) {
	ir := &Network{
		Name:         net.Name,
		Board:        board,
		FrequencyMHz: freqMHz,
		Input:        InputShape{Channels: net.Input.Channels, Height: net.Input.Height, Width: net.Input.Width},
	}
	ws := NewWeightSet()
	for _, l := range net.Layers {
		typ, ok := typeByKind[l.Kind]
		if !ok {
			return nil, nil, fmt.Errorf("condorir: layer %q: unsupported kind %v", l.Name, l.Kind)
		}
		ir.Layers = append(ir.Layers, Layer{
			Name:        l.Name,
			Type:        typ,
			KernelSize:  l.Kernel,
			Stride:      l.Stride,
			Pad:         l.Pad,
			NumOutput:   l.OutputCount,
			Bias:        l.Bias != nil,
			Parallelism: Parallelism{In: 1, Out: 1},
			PEGroup:     -1,
		})
		if l.Weights != nil {
			ws.PutRaw(l.Name, EntryWeights, slices.Clone(l.Weights.Shape()), l.Weights.Data())
		}
		if l.Bias != nil {
			ws.PutRaw(l.Name, EntryBias, slices.Clone(l.Bias.Shape()), l.Bias.Data())
		}
	}
	if err := ir.Validate(); err != nil {
		return nil, nil, err
	}
	return ir, ws, nil
}

// BuildNN materialises an executable nn.Network from the representation and
// a weight set (core-logic side of the frontend contract).
func (n *Network) BuildNN(ws *WeightSet) (*nn.Network, error) {
	shapes, err := n.Shapes()
	if err != nil {
		return nil, err
	}
	net := &nn.Network{
		Name:  n.Name,
		Input: shapes[0],
	}
	for i := range n.Layers {
		l := &n.Layers[i]
		kind, err := l.Kind()
		if err != nil {
			return nil, err
		}
		layer := &nn.Layer{
			Name: l.Name, Kind: kind,
			Kernel: l.KernelSize, Stride: defaultStride(l), Pad: l.Pad,
			OutputCount: l.NumOutput,
		}
		in := shapes[i]
		switch kind {
		case nn.Conv:
			w, ok := ws.Get(l.Name, EntryWeights)
			if !ok {
				return nil, fmt.Errorf("condorir: weights for layer %q missing from weight set", l.Name)
			}
			layer.Weights, err = w.Tensor(l.NumOutput, in.Channels, l.KernelSize, l.KernelSize)
			if err != nil {
				return nil, fmt.Errorf("condorir: layer %q: %w", l.Name, err)
			}
		case nn.FullyConnected:
			w, ok := ws.Get(l.Name, EntryWeights)
			if !ok {
				return nil, fmt.Errorf("condorir: weights for layer %q missing from weight set", l.Name)
			}
			layer.Weights, err = w.Tensor(l.NumOutput, in.Volume())
			if err != nil {
				return nil, fmt.Errorf("condorir: layer %q: %w", l.Name, err)
			}
		}
		if l.Bias {
			b, ok := ws.Get(l.Name, EntryBias)
			if !ok {
				return nil, fmt.Errorf("condorir: bias for layer %q missing from weight set", l.Name)
			}
			layer.Bias, err = b.Tensor(l.NumOutput)
			if err != nil {
				return nil, fmt.Errorf("condorir: layer %q bias: %w", l.Name, err)
			}
		}
		net.Layers = append(net.Layers, layer)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// PEGroups resolves the layer→PE assignment: the returned slice has one
// entry per PE, each listing the indices of the layers mapped onto it.
// Layers with PEGroup -1 each get their own PE (full intra-layer
// parallelism, the paper's default); explicit group values cluster layers,
// which must be contiguous and of compatible stages (features extraction
// layers fuse only with features extraction layers, classification with
// classification, matching the methodology in Section 3.2 of the paper).
// Activation layers always fold into the PE of the preceding layer.
func (n *Network) PEGroups() ([][]int, error) {
	var groups [][]int
	groupOf := make(map[int]int) // explicit PEGroup value -> index into groups
	for i := range n.Layers {
		l := &n.Layers[i]
		kind, err := l.Kind()
		if err != nil {
			return nil, err
		}
		if kind.IsActivation() || kind == nn.SoftMax || kind == nn.LogSoftMax {
			// Fold into the previous PE; a leading activation is meaningless.
			if len(groups) == 0 {
				return nil, fmt.Errorf("condorir: network %q begins with activation layer %q", n.Name, l.Name)
			}
			groups[len(groups)-1] = append(groups[len(groups)-1], i)
			continue
		}
		if l.PEGroup < 0 {
			groups = append(groups, []int{i})
			continue
		}
		gi, ok := groupOf[l.PEGroup]
		if !ok {
			groups = append(groups, []int{i})
			groupOf[l.PEGroup] = len(groups) - 1
			continue
		}
		if gi != len(groups)-1 {
			return nil, fmt.Errorf("condorir: pe_group %d of layer %q is not contiguous", l.PEGroup, l.Name)
		}
		// Stage compatibility: all compute layers in a group share a stage.
		firstKind, _ := n.Layers[groups[gi][0]].Kind()
		if firstKind.IsFeatureExtraction() != kind.IsFeatureExtraction() {
			return nil, fmt.Errorf("condorir: pe_group %d mixes features-extraction and classification layers", l.PEGroup)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups, nil
}

// tensorFromEntry is a helper used by BuildNN via WeightEntry.Tensor.
func tensorFromEntry(data []float32, dims ...int) (*tensor.Tensor, error) {
	if tensor.Volume(dims) != len(data) {
		return nil, fmt.Errorf("weight entry has %d values, shape %v needs %d", len(data), dims, tensor.Volume(dims))
	}
	return tensor.FromSlice(data, dims...), nil
}
