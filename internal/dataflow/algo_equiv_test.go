package dataflow

import (
	"fmt"
	"testing"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/nn"
	"condor/internal/tensor"
)

// These tests pin the per-layer algorithm contract: the im2col+GEMM float32
// path is held to the same bit-identity-plus-identical-stats standard as
// the direct path (the microkernel reorders independent cells, never an
// accumulation chain), Winograd F(2,3) is held to the bounded-error
// contract of RunStats.WinogradErrorBound, and the packed int8 variants
// stay inside QuantErrorBound (plus the winograd term where it applies) —
// all swept across parallelism and replicated compute units, on specs whose
// conv layers were switched away from the direct algorithm.

// setConvAlgo overrides the algorithm of every conv layer in the spec.
func setConvAlgo(spec *Spec, algo ConvAlgo) {
	for _, pe := range spec.PEs {
		for li := range pe.Layers {
			if pe.Layers[li].Kind == nn.Conv {
				pe.Layers[li].ConvAlgo = algo
			}
		}
	}
}

// runGEMMCase runs one {Par, CUs} point of the float32 GEMM sweep: the
// same gemm-mode spec backs a replicated unit (replica) and the word oracle
// (whose conv arithmetic is always direct), so the comparison proves the lowering is
// bit-identical to direct convolution — and that the shared cycle model
// keeps both sides' stats in lockstep.
func runGEMMCase(t *testing.T, ir *condorir.Network, ws *condorir.WeightSet, batch []*tensor.Tensor, par condorir.Parallelism, cus int) {
	t.Helper()
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	setConvAlgo(spec, AlgoGEMM)
	for _, pe := range spec.PEs {
		pe.Par = par
	}
	gemmAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	wordAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, gotStats, err := replica(t, gemmAcc, cus).Run(batch)
	if err != nil {
		t.Fatalf("gemm run: %v", err)
	}
	wantOut, wantStats, err := wordAcc.RunWords(batch)
	if err != nil {
		t.Fatalf("word run: %v", err)
	}
	assertRunsIdentical(t, "gemm", gotOut, gotStats, "word", wantOut, wantStats)
}

// runQuantAlgoCase runs one {algo, Par, CUs} point of the packed int8 sweep
// against the float oracle, with the tolerance the packed run itself
// recorded (QuantErrorBound, plus WinogradErrorBound for winograd layers).
func runQuantAlgoCase(t *testing.T, ir *condorir.Network, ws *condorir.WeightSet, batch []*tensor.Tensor, algo ConvAlgo, par condorir.Parallelism, cus int) {
	t.Helper()
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	spec.WordBits = 8
	setConvAlgo(spec, algo)
	for _, pe := range spec.PEs {
		pe.Par = par
	}
	packedAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	oracleAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, gotStats, err := replica(t, packedAcc, cus).Run(batch)
	if err != nil {
		t.Fatalf("packed %s run: %v", algo, err)
	}
	wantOut, _, err := oracleAcc.RunWords(batch)
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	tol := gotStats.QuantErrorBound() + gotStats.WinogradErrorBound()
	if tol <= 0 {
		t.Fatalf("error bound = %g, want positive", tol)
	}
	agree := 0
	for i := range gotOut {
		if d := tensor.MaxAbsDiff(gotOut[i], wantOut[i]); d > tol {
			t.Errorf("image %d: max abs diff %g exceeds error bound %g", i, d, tol)
		}
		if gotOut[i].ArgMax() == wantOut[i].ArgMax() {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(gotOut)); frac < 0.75 {
		t.Errorf("argmax agreement %.2f below 0.75 (%d/%d images)", frac, agree, len(gotOut))
	}
	if model, meas := modelBottleneck(spec), gotStats.BottleneckCycles(); model != meas {
		t.Errorf("modeled bottleneck %d != measured %d", model, meas)
	}
}

// TC1 and LeNet are the paper's 5×5-conv models, so their sweep covers the
// direct and im2col_gemm algorithms; winograd_f23 does not qualify there
// (CND025 would reject it) and is exercised on the 3×3 model below.

func TestAlgoEquivalenceTC1(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.USPSImages(4, 7)
	for _, par := range []int{1, 2} {
		for _, cus := range []int{1, 2} {
			p := condorir.Parallelism{In: par, Out: par}
			t.Run(fmt.Sprintf("gemm/par=%d/cus=%d", par, cus), func(t *testing.T) {
				runGEMMCase(t, ir, ws, batch, p, cus)
			})
			t.Run(fmt.Sprintf("gemm/int8/par=%d/cus=%d", par, cus), func(t *testing.T) {
				runQuantAlgoCase(t, ir, ws, batch, AlgoGEMM, p, cus)
			})
		}
	}
}

func TestAlgoEquivalenceLeNet(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.MNISTImages(2, 11)
	for _, cus := range []int{1, 2} {
		p := condorir.Parallelism{In: 2, Out: 2}
		t.Run(fmt.Sprintf("gemm/cus=%d", cus), func(t *testing.T) {
			runGEMMCase(t, ir, ws, batch, p, cus)
		})
		t.Run(fmt.Sprintf("gemm/int8/cus=%d", cus), func(t *testing.T) {
			runQuantAlgoCase(t, ir, ws, batch, AlgoGEMM, p, cus)
		})
	}
}

// winogradNet is a tiny 3×3/stride-1 network whose conv outputs are even on
// both axes, so every conv layer qualifies for F(2,3).
func winogradNet(t testing.TB) (*condorir.Network, *condorir.WeightSet, *nn.Network) {
	return buildIR(t, "wg3", condorir.InputShape{Channels: 1, Height: 14, Width: 14}, tinyLeNetLayers(), 40)
}

// TestWinogradEquivalence pins the F(2,3) bounded-error contract on the
// float path: the deviation from the direct-convolution oracle must stay
// inside the bound the run itself recorded, at several parallelism and CU
// settings.
func TestWinogradEquivalence(t *testing.T) {
	ir, ws, net := winogradNet(t)
	batch := randomImages(4, net.Input, 41)
	for _, par := range []int{1, 2} {
		for _, cus := range []int{1, 2} {
			t.Run(fmt.Sprintf("par=%d/cus=%d", par, cus), func(t *testing.T) {
				spec, err := BuildSpec(ir)
				if err != nil {
					t.Fatal(err)
				}
				setConvAlgo(spec, AlgoWinograd)
				for _, pe := range spec.PEs {
					pe.Par = condorir.Parallelism{In: par, Out: par}
				}
				wgAcc, err := Instantiate(spec, ws)
				if err != nil {
					t.Fatal(err)
				}
				wordAcc, err := Instantiate(spec, ws)
				if err != nil {
					t.Fatal(err)
				}
				gotOut, gotStats, err := replica(t, wgAcc, cus).Run(batch)
				if err != nil {
					t.Fatalf("winograd run: %v", err)
				}
				wantOut, _, err := wordAcc.RunWords(batch)
				if err != nil {
					t.Fatalf("word run: %v", err)
				}
				tol := gotStats.WinogradErrorBound()
				if tol <= 0 {
					t.Fatalf("WinogradErrorBound = %g, want positive", tol)
				}
				for i := range gotOut {
					if d := tensor.MaxAbsDiff(gotOut[i], wantOut[i]); d > tol {
						t.Errorf("image %d: max abs diff %g exceeds winograd error bound %g", i, d, tol)
					}
				}
			})
		}
	}
}

// TestWinogradEquivalenceInt8 runs the packed variant of the same model:
// deviation bounded by the sum of the quantization and winograd bounds.
func TestWinogradEquivalenceInt8(t *testing.T) {
	ir, ws, net := winogradNet(t)
	batch := randomImages(4, net.Input, 42)
	runQuantAlgoCase(t, ir, ws, batch, AlgoWinograd, condorir.Parallelism{In: 2, Out: 2}, 2)
}

// TestStreamingMixedAlgoChain proves a resident batch=8 session survives a
// PE chain whose conv layers run different algorithms (winograd feeding
// gemm), on both datapaths. The name keeps it inside the stream-stress CI
// pattern (-run TestStreaming) so it also runs under the race detector.
func TestStreamingMixedAlgoChain(t *testing.T) {
	ir, ws, net := winogradNet(t)
	batch := randomImages(8, net.Input, 43)
	for _, int8path := range []bool{false, true} {
		name := "float32"
		if int8path {
			name = "int8"
		}
		t.Run(name, func(t *testing.T) {
			spec, err := BuildSpec(ir)
			if err != nil {
				t.Fatal(err)
			}
			if int8path {
				spec.WordBits = 8
			}
			// Mixed chain: first conv in the transform domain, second on
			// the im2col panel, everything else direct.
			assigned := 0
			for _, pe := range spec.PEs {
				for li := range pe.Layers {
					if pe.Layers[li].Kind != nn.Conv {
						continue
					}
					if assigned == 0 {
						pe.Layers[li].ConvAlgo = AlgoWinograd
					} else {
						pe.Layers[li].ConvAlgo = AlgoGEMM
					}
					assigned++
				}
			}
			if assigned < 2 {
				t.Fatalf("model has %d conv layers, mixed-algo chain needs 2", assigned)
			}
			acc, err := Instantiate(spec, ws)
			if err != nil {
				t.Fatal(err)
			}
			oracleAcc, err := Instantiate(spec, ws)
			if err != nil {
				t.Fatal(err)
			}
			sess := acc.OpenSession()
			var gotOut []*tensor.Tensor
			for _, chunk := range chunkBatch(batch) {
				outs, _, err := sess.RunBatch(chunk)
				if err != nil {
					t.Fatalf("streaming chunk: %v", err)
				}
				gotOut = append(gotOut, outs...)
			}
			gotStats := sess.Stats()
			if err := sess.Close(); err != nil {
				t.Fatalf("session close: %v", err)
			}
			wantOut, _, err := oracleAcc.RunWords(batch)
			if err != nil {
				t.Fatalf("oracle run: %v", err)
			}
			tol := gotStats.WinogradErrorBound()
			if int8path {
				tol += gotStats.QuantErrorBound()
			}
			if tol <= 0 {
				t.Fatalf("error bound = %g, want positive", tol)
			}
			if len(gotOut) != len(wantOut) {
				t.Fatalf("output count %d vs %d", len(gotOut), len(wantOut))
			}
			for i := range gotOut {
				if d := tensor.MaxAbsDiff(gotOut[i], wantOut[i]); d > tol {
					t.Errorf("image %d: max abs diff %g exceeds error bound %g", i, d, tol)
				}
			}
			assertFramedStreams(t, gotStats, len(batch))
		})
	}
}
