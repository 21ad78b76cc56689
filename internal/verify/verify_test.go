package verify

import (
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/diag"
	"condor/internal/hls"
	"condor/internal/models"
	"condor/internal/nn"
	"condor/internal/tensor"
)

// freshTC1 builds a clean TC1 spec the table tests can mutate.
func freshTC1(t *testing.T) (*dataflow.Spec, *condorir.Network, *condorir.WeightSet) {
	t.Helper()
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	if err := hls.PlanMemory(spec); err != nil {
		t.Fatal(err)
	}
	return spec, ir, ws
}

// rules collects the distinct rule IDs of a diagnostic batch.
func rules(ds []*Diagnostic) map[string]bool {
	m := map[string]bool{}
	for _, d := range ds {
		m[d.Rule] = true
	}
	return m
}

// featurePE returns the first features-extraction PE of the spec.
func featurePE(t *testing.T, spec *dataflow.Spec) *dataflow.PE {
	t.Helper()
	for _, pe := range spec.PEs {
		if pe.IsFeatureExtraction() {
			return pe
		}
	}
	t.Fatal("spec has no features-extraction PE")
	return nil
}

// classifierPE returns the first classification PE of the spec.
func classifierPE(t *testing.T, spec *dataflow.Spec) *dataflow.PE {
	t.Helper()
	for _, pe := range spec.PEs {
		if !pe.IsFeatureExtraction() {
			return pe
		}
	}
	t.Fatal("spec has no classification PE")
	return nil
}

// TestCleanModels pins the acceptance guarantee: every deployable built-in
// model passes the full verifier with zero diagnostics.
func TestCleanModels(t *testing.T) {
	cases := []struct {
		name string
		load func() (*condorir.Network, *condorir.WeightSet, error)
	}{
		{"tc1", models.TC1},
		{"lenet", models.LeNet},
		{"vgg16-features", func() (*condorir.Network, *condorir.WeightSet, error) {
			return models.VGG16Features(), nil, nil
		}},
		{"alexnet-features", func() (*condorir.Network, *condorir.WeightSet, error) {
			return models.AlexNetFeatures(), nil, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ir, ws, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			spec, err := dataflow.BuildSpec(ir)
			if err != nil {
				t.Fatal(err)
			}
			if err := hls.PlanMemory(spec); err != nil {
				t.Fatal(err)
			}
			for _, d := range Lint(spec, ir, ws) {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		})
	}
}

// TestAccumulatorRange pins CND026: on the packed int8 fabric a layer whose
// accumulation depth times 128² reaches 2³¹ is rejected — by the verifier and,
// diag-wrapped, by Instantiate — while the same net in float32, the depth one
// below the limit and the evaluation models at int8 all pass. The rejected
// net is the fixture CI feeds `condor lint`.
func TestAccumulatorRange(t *testing.T) {
	lint := func(t *testing.T, ir *condorir.Network, bits int) (*dataflow.Spec, map[string]bool) {
		t.Helper()
		spec, err := dataflow.BuildSpec(ir)
		if err != nil {
			t.Fatal(err)
		}
		spec.WordBits = bits
		ds := Lint(spec, ir, nil)
		for _, d := range ds {
			if d.Rule == diag.RuleAccumulatorRange && d.Severity != diag.Error {
				t.Errorf("%s fired below error severity: %s", diag.RuleAccumulatorRange, d)
			}
		}
		return spec, rules(ds)
	}
	fc := func(c, h, w int) *condorir.Network {
		return &condorir.Network{Name: "fc", Board: "aws-f1-vu9p", FrequencyMHz: 100,
			Input:  condorir.InputShape{Channels: c, Height: h, Width: w},
			Layers: []condorir.Layer{{Name: "ip", Type: "InnerProduct", NumOutput: 2, PEGroup: -1}}}
	}

	js, err := os.ReadFile("testdata/deep_fc.json")
	if err != nil {
		t.Fatal(err)
	}
	deep, err := condorir.FromJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	spec, fired := lint(t, deep, 8)
	if !fired[diag.RuleAccumulatorRange] {
		t.Errorf("a %d-deep int8 InnerProduct passed lint", deep.Input.Channels*deep.Input.Height*deep.Input.Width)
	}
	ws := condorir.NewWeightSet()
	ws.Put("ip", condorir.EntryWeights, tensor.New(2, spec.Input.Volume()))
	ws.Put("ip", condorir.EntryBias, tensor.New(2))
	if _, err := dataflow.Instantiate(spec, ws); diag.Rule(err) != diag.RuleAccumulatorRange {
		t.Errorf("Instantiate at int8: diag.Rule(err) = %q (err: %v), want %s", diag.Rule(err), err, diag.RuleAccumulatorRange)
	}
	if spec, fired = lint(t, deep, 32); fired[diag.RuleAccumulatorRange] {
		t.Error("the rule fired on the float32 fabric, which has no integer accumulator")
	}
	if _, err := dataflow.Instantiate(spec, ws); err != nil {
		t.Errorf("Instantiate at float32: %v", err)
	}

	// 2¹⁷·128² = 2³¹ is the first depth a saturated input can wrap.
	if _, fired := lint(t, fc(2, 256, 256), 8); !fired[diag.RuleAccumulatorRange] {
		t.Error("depth 131072 passed")
	}
	if _, fired := lint(t, fc(1, 1, 131071), 8); fired[diag.RuleAccumulatorRange] {
		t.Error("depth 131071 was rejected")
	}
	for _, load := range []func() (*condorir.Network, *condorir.WeightSet, error){models.TC1, models.LeNet} {
		ir, _, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if _, fired := lint(t, ir, 8); fired[diag.RuleAccumulatorRange] {
			t.Errorf("%s at int8 tripped %s", ir.Name, diag.RuleAccumulatorRange)
		}
	}
}

// TestVGG16ClassifierGate checks that the full VGG-16 model trips exactly the
// paper's "not synthesizable" gate, as a verifier rule rather than a build
// failure.
func TestVGG16ClassifierGate(t *testing.T) {
	ir := models.VGG16()
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	ds := Verify(spec, ir, nil)
	if len(ds) != 1 || ds[0].Rule != diag.RuleHLSArrayLimit || ds[0].Severity != diag.Error {
		t.Fatalf("diagnostics = %v, want exactly one %s error", ds, diag.RuleHLSArrayLimit)
	}
}

// TestBrokenSpecs drives the verifier over deliberately broken designs and
// asserts the exact rule that must fire for each defect.
func TestBrokenSpecs(t *testing.T) {
	cases := []struct {
		name string
		// breakIt mutates a fresh TC1 spec/ir/weights trio.
		breakIt func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet)
		rule    string
		// warning marks rules that must fire at Warning severity with no
		// error-severity diagnostics at all.
		warning bool
	}{
		{
			name: "shape-chain-break",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				pe := classifierPE(t, spec)
				pe.Layers[0].InShape.Channels++
			},
			rule: diag.RuleShapeChain,
		},
		{
			name: "shape-geometry-break",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				pe := featurePE(t, spec)
				pe.Layers[0].OutShape.Height++
			},
			rule: diag.RuleShapeGeometry,
		},
		{
			name: "chain-missing",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				featurePE(t, spec).Chain = nil
			},
			rule: diag.RuleChainMissing,
		},
		{
			name: "chain-on-classifier",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				chain, err := dataflow.NewFilterChain(3, 16)
				if err != nil {
					t.Fatal(err)
				}
				classifierPE(t, spec).Chain = chain
			},
			rule:    diag.RuleChainMissing,
			warning: true,
		},
		{
			name: "chain-window-too-small",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				// Rebuild the chain one window size short of the fused layers.
				pe := featurePE(t, spec)
				small, err := dataflow.NewFilterChain(pe.Chain.Kernel-1, pe.Chain.PaddedW)
				if err != nil {
					t.Fatal(err)
				}
				pe.Chain = small
			},
			rule: diag.RuleChainWindow,
		},
		{
			name: "chain-taps-out-of-order",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				taps := featurePE(t, spec).Chain.Taps
				taps[0], taps[1] = taps[1], taps[0]
			},
			rule: diag.RuleChainTaps,
		},
		{
			name: "fifo-undersized-deadlock",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				featurePE(t, spec).Chain.FIFODepths[0]--
			},
			rule: diag.RuleFIFODepth,
		},
		{
			name: "fifo-oversized-bram-waste",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				featurePE(t, spec).Chain.FIFODepths[0] += 7
			},
			rule:    diag.RuleFIFODepth,
			warning: true,
		},
		{
			name: "interpe-fifo-zero",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				spec.InterPEFIFODepth = 0
			},
			rule: diag.RuleInterPEFIFO,
		},
		{
			name: "weight-words-mismatch",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				e, ok := ws.Get("conv1", condorir.EntryWeights)
				if !ok {
					t.Fatal("conv1 weights missing from the model weight set")
				}
				ws.PutRaw("conv1", condorir.EntryWeights, nil, e.Data[:len(e.Data)-1])
			},
			rule: diag.RuleWeightWords,
		},
		{
			name: "weight-entry-missing",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				// WeightSet has no delete; rebuild it without conv2.
				pruned := condorir.NewWeightSet()
				for _, e := range ws.Entries() {
					if e.Layer == "conv2" && e.Kind == condorir.EntryWeights {
						continue
					}
					pruned.PutRaw(e.Layer, e.Kind, e.Dims, e.Data)
				}
				*ws = *pruned
			},
			rule: diag.RuleWeightMissing,
		},
		{
			name: "bias-words-mismatch",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				e, ok := ws.Get("fc2", condorir.EntryBias)
				if !ok {
					t.Fatal("fc2 bias missing from the model weight set")
				}
				ws.PutRaw("fc2", condorir.EntryBias, nil, append([]float32{0}, e.Data...))
			},
			rule: diag.RuleBiasWords,
		},
		{
			name: "board-unknown",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				spec.Board = "zynq-7099-imaginary"
			},
			rule: diag.RuleBoardUnknown,
		},
		{
			name: "freq-above-platform-max",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				spec.FreqMHz = 10_000
			},
			rule: diag.RuleFreqRange,
		},
		{
			name: "freq-non-positive",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				spec.FreqMHz = 0
			},
			rule: diag.RuleFreqRange,
		},
		{
			name: "resource-over-budget",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				// Absurd port parallelism multiplies the MAC array past the
				// board's DSP budget.
				for _, pe := range spec.PEs {
					pe.Par = condorir.Parallelism{In: 512, Out: 512}
				}
			},
			rule: diag.RuleResourceBudget,
		},
		{
			name: "parallelism-zero",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				featurePE(t, spec).Par.In = 0
			},
			rule: diag.RuleParallelism,
		},
		{
			name: "parallelism-idle-ports",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				// TC1's input has a single channel; two input ports leave one idle.
				featurePE(t, spec).Par.In = 2
			},
			rule:    diag.RuleParallelism,
			warning: true,
		},
		{
			name: "word-bits-unsupported",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				spec.WordBits = 12
			},
			rule: diag.RuleWordBits,
		},
		{
			name: "word-bits-16-has-no-datapath",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				spec.WordBits = 16
			},
			rule: diag.RuleWordBits,
		},
		{
			name: "lane-packing-padded-tail",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				// TC1's fc2 streams 10 values per image — not a multiple of
				// the 4 packed lanes, so the tail word carries padded lanes.
				spec.WordBits = 8
			},
			rule:    diag.RuleLanePacking,
			warning: true,
		},
		{
			name: "lane-packing-strict-rejects",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				spec.WordBits = 8
				spec.StrictLanes = true
			},
			rule: diag.RuleLanePacking,
		},
		{
			name: "empty-pe",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				spec.PEs[0].Layers = nil
			},
			rule: diag.RuleEmptyStructure,
		},
		{
			name: "stage-order-inverted",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				last := len(spec.PEs) - 1
				spec.PEs[0], spec.PEs[last] = spec.PEs[last], spec.PEs[0]
			},
			rule: diag.RuleStageOrder,
		},
		{
			name: "conv-algo-unknown",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				featurePE(t, spec).Layers[0].ConvAlgo = dataflow.ConvAlgo("systolic")
			},
			rule: diag.RuleConvAlgo,
		},
		{
			name: "conv-algo-winograd-on-5x5",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				// TC1's convs are 5x5, outside the F(2,3) qualification.
				featurePE(t, spec).Layers[0].ConvAlgo = dataflow.AlgoWinograd
			},
			rule: diag.RuleConvAlgo,
		},
		{
			name: "conv-algo-on-non-conv",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				pe := classifierPE(t, spec)
				pe.Layers[len(pe.Layers)-1].ConvAlgo = dataflow.AlgoGEMM
			},
			rule: diag.RuleConvAlgo,
		},
		{
			name: "ir-coverage-renamed-layer",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				featurePE(t, spec).Layers[0].Name = "conv1-detached"
			},
			rule: diag.RuleIRCoverage,
		},
		{
			name: "ir-coverage-input-mismatch",
			breakIt: func(t *testing.T, spec *dataflow.Spec, ir *condorir.Network, ws *condorir.WeightSet) {
				ir.Input.Width++
			},
			rule: diag.RuleIRCoverage,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, ir, ws := freshTC1(t)
			tc.breakIt(t, spec, ir, ws)
			ds := Lint(spec, ir, ws)
			if !rules(ds)[tc.rule] {
				t.Fatalf("rule %s did not fire; diagnostics: %v", tc.rule, ds)
			}
			if tc.warning {
				if diag.HasErrors(ds) {
					t.Fatalf("expected warnings only, got errors: %v", ds)
				}
				for _, d := range ds {
					if d.Rule == tc.rule && d.Severity != diag.Warning {
						t.Fatalf("rule %s fired at severity %s, want warning", tc.rule, d.Severity)
					}
				}
			} else if !diag.HasErrors(ds) {
				t.Fatalf("expected an error-severity diagnostic, got: %v", ds)
			}
		})
	}
}

// TestEmptySpec covers the degenerate CND017 case.
func TestEmptySpec(t *testing.T) {
	ds := Verify(&dataflow.Spec{}, nil, nil)
	if len(ds) != 1 || ds[0].Rule != diag.RuleEmptyStructure {
		t.Fatalf("diagnostics = %v, want one %s", ds, diag.RuleEmptyStructure)
	}
}

// TestInstantiateErrorsCarryRules checks the dataflow integration satellite:
// Instantiate failures wrap verify-style diagnostics so callers can extract
// the rule ID with errors.As.
func TestInstantiateErrorsCarryRules(t *testing.T) {
	t.Run("missing-weights", func(t *testing.T) {
		spec, _, _ := freshTC1(t)
		_, err := dataflow.Instantiate(spec, condorir.NewWeightSet())
		if err == nil {
			t.Fatal("Instantiate succeeded with an empty weight set")
		}
		if r := diag.Rule(err); r != diag.RuleWeightMissing {
			t.Fatalf("diag.Rule(err) = %q (err: %v), want %s", r, err, diag.RuleWeightMissing)
		}
	})
	t.Run("wrong-word-count", func(t *testing.T) {
		spec, _, ws := freshTC1(t)
		e, _ := ws.Get("conv1", condorir.EntryWeights)
		ws.PutRaw("conv1", condorir.EntryWeights, nil, e.Data[:len(e.Data)-3])
		_, err := dataflow.Instantiate(spec, ws)
		if err == nil {
			t.Fatal("Instantiate succeeded with truncated weights")
		}
		if r := diag.Rule(err); r != diag.RuleWeightWords {
			t.Fatalf("diag.Rule(err) = %q (err: %v), want %s", r, err, diag.RuleWeightWords)
		}
	})
	t.Run("wrong-bias-count", func(t *testing.T) {
		spec, _, ws := freshTC1(t)
		e, _ := ws.Get("conv1", condorir.EntryBias)
		ws.PutRaw("conv1", condorir.EntryBias, nil, append([]float32{0}, e.Data...))
		_, err := dataflow.Instantiate(spec, ws)
		if err == nil {
			t.Fatal("Instantiate succeeded with an oversized bias")
		}
		if r := diag.Rule(err); r != diag.RuleBiasWords {
			t.Fatalf("diag.Rule(err) = %q (err: %v), want %s", r, err, diag.RuleBiasWords)
		}
	})
}

// randomNet draws a small random conv(+pool)+fc network with random weights.
func randomNet(rng *rand.Rand) *nn.Network {
	in := nn.Shape{
		Channels: 1 + rng.Intn(3),
		Height:   7 + rng.Intn(6),
		Width:    7 + rng.Intn(6),
	}
	k := []int{1, 3, 5}[rng.Intn(3)]
	pad := rng.Intn(2)
	filters := 1 + rng.Intn(4)

	conv := &nn.Layer{
		Name: "conv1", Kind: nn.Conv,
		Kernel: k, Stride: 1, Pad: pad, OutputCount: filters,
	}
	conv.Weights = tensor.New(filters, in.Channels, k, k)
	conv.Weights.FillRandom(rng, 1)
	if rng.Intn(2) == 1 {
		conv.Bias = tensor.New(filters)
		conv.Bias.FillRandom(rng, 1)
	}
	net := &nn.Network{Name: "prop", Input: in, Layers: []*nn.Layer{conv}}

	shape, _ := conv.OutputShape(in)
	if rng.Intn(2) == 1 {
		net.Layers = append(net.Layers, &nn.Layer{Name: "relu1", Kind: nn.ReLU, Stride: 1})
	}
	if shape.Height >= 2 && shape.Width >= 2 && rng.Intn(2) == 1 {
		pool := &nn.Layer{Name: "pool1", Kind: nn.MaxPool, Kernel: 2, Stride: 2}
		net.Layers = append(net.Layers, pool)
		shape, _ = pool.OutputShape(shape)
	}
	outs := 2 + rng.Intn(6)
	fc := &nn.Layer{Name: "fc1", Kind: nn.FullyConnected, Stride: 1, OutputCount: outs}
	fc.Weights = tensor.New(outs, shape.Volume())
	fc.Weights.FillRandom(rng, 1)
	net.Layers = append(net.Layers, fc)
	return net
}

// TestVerifyImpliesInstantiable is the testing/quick property of the issue:
// any Spec the verifier passes must instantiate and must co-simulate — the
// fabric's output matches the golden reference on a random image.
func TestVerifyImpliesInstantiable(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := randomNet(rng)
		if err := net.Validate(); err != nil {
			t.Logf("seed %d: invalid random net: %v", seed, err)
			return false
		}
		ir, ws, err := condorir.FromNN(net, models.F1Board, 150)
		if err != nil {
			t.Logf("seed %d: FromNN: %v", seed, err)
			return false
		}
		spec, err := dataflow.BuildSpec(ir)
		if err != nil {
			t.Logf("seed %d: BuildSpec: %v", seed, err)
			return false
		}
		if err := hls.PlanMemory(spec); err != nil {
			t.Logf("seed %d: PlanMemory: %v", seed, err)
			return false
		}
		if ds := Lint(spec, ir, ws); diag.HasErrors(ds) {
			// The verifier rejected the design; the property only covers
			// accepted designs.
			t.Logf("seed %d: verifier rejected the spec: %v", seed, ds)
			return true
		}

		acc, err := dataflow.Instantiate(spec, ws)
		if err != nil {
			t.Logf("seed %d: Instantiate after clean Verify: %v", seed, err)
			return false
		}
		img := tensor.New(net.Input.Channels, net.Input.Height, net.Input.Width)
		img.FillRandom(rng, 1)
		outs, _, err := acc.Run([]*tensor.Tensor{img})
		if err != nil {
			t.Logf("seed %d: fabric run: %v", seed, err)
			return false
		}
		want, err := net.Predict(img)
		if err != nil {
			t.Logf("seed %d: reference: %v", seed, err)
			return false
		}
		if d := tensor.MaxAbsDiff(outs[0], want); d > 2e-3 {
			t.Logf("seed %d: fabric diverges from the reference by %g", seed, d)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
