package dataflow

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/tensor"
)

// The fast executors gather windows by indexing the padded plane instead of
// replaying the filter chain, and tile their MAC loops across independent
// cells. TC1 and LeNet only ever show them 5×5/stride-1/pad-0 convolutions,
// 2×2/stride-2 pools and output widths that divide the register tile, so
// this sweep holds the gather against the word oracle on the geometries
// those models never reach: strides, padding, overlapping windows, 1×1 and
// 3×3 kernels, output widths on both sides of the tile, odd channel and
// neuron counts, and fused PEs whose layers differ in window and padding.

type gatherCase struct {
	name   string
	input  condorir.InputShape
	layers []condorir.Layer
}

func conv(name string, k, stride, pad, out, group int) condorir.Layer {
	return condorir.Layer{Name: name, Type: "Convolution", KernelSize: k, Stride: stride, Pad: pad,
		NumOutput: out, Bias: true, PEGroup: group}
}

func pool(name, typ string, k, stride, pad, group int) condorir.Layer {
	return condorir.Layer{Name: name, Type: typ, KernelSize: k, Stride: stride, Pad: pad, PEGroup: group}
}

var gatherCases = []gatherCase{
	// out 5×5: one tile plus a remainder; odd output-channel count.
	{"conv3-stride2-pad1", condorir.InputShape{Channels: 3, Height: 9, Width: 9},
		[]condorir.Layer{conv("c", 3, 2, 1, 5, -1)}},
	// out 7×7 from a 5×5 map: the padding is wider than the tile remainder.
	{"conv3-pad2", condorir.InputShape{Channels: 2, Height: 5, Width: 5},
		[]condorir.Layer{conv("c", 3, 1, 2, 3, -1)}},
	// out 3×3: narrower than the tile, every cell is a remainder.
	{"conv1x1", condorir.InputShape{Channels: 4, Height: 3, Width: 3},
		[]condorir.Layer{conv("c", 1, 1, 0, 7, -1)}},
	// out 1×1, one output channel: the degenerate tile in both dimensions.
	{"conv5-single-cell", condorir.InputShape{Channels: 2, Height: 5, Width: 5},
		[]condorir.Layer{conv("c", 5, 1, 0, 1, -1)}},
	{"conv3-stride2-relu", condorir.InputShape{Channels: 2, Height: 15, Width: 15},
		[]condorir.Layer{conv("c", 3, 2, 0, 6, -1), {Name: "r", Type: "ReLU", PEGroup: -1}}},
	// out 4×4, unpadded: the input volume is gathered in place, and the last
	// tile's fourth position reads its final word under the last channel's
	// last tap.
	{"conv3-stride2-full-tiles", condorir.InputShape{Channels: 3, Height: 9, Width: 9},
		[]condorir.Layer{conv("c", 3, 2, 0, 4, -1)}},
	// out 6×6: a two-position remainder, over three staged padded planes; 7
	// output channels leave a lone channel at the end of a band at every
	// Par.Out of the sweep.
	{"conv3-pad1-lone-channel", condorir.InputShape{Channels: 3, Height: 6, Width: 6},
		[]condorir.Layer{conv("c", 3, 1, 1, 7, -1)}},
	// Overlapping 3/2 windows, out 5×5.
	{"maxpool3-stride2", condorir.InputShape{Channels: 3, Height: 11, Width: 11},
		[]condorir.Layer{pool("p", "MaxPooling", 3, 2, 0, -1)}},
	// Padded max pool over negative inputs: border windows must see the zeros.
	{"maxpool3-stride2-pad1", condorir.InputShape{Channels: 5, Height: 7, Width: 7},
		[]condorir.Layer{pool("p", "MaxPooling", 3, 2, 1, -1)}},
	{"avgpool2-relu", condorir.InputShape{Channels: 3, Height: 6, Width: 6},
		[]condorir.Layer{pool("p", "AvgPooling", 2, 2, 0, -1), {Name: "r", Type: "ReLU", PEGroup: -1}}},
	{"avgpool3-stride2-pad1-relu", condorir.InputShape{Channels: 4, Height: 7, Width: 7},
		[]condorir.Layer{pool("p", "AvgPooling", 3, 2, 1, -1), {Name: "r", Type: "ReLU", PEGroup: -1}}},
	// Fused PE: the second layer has the smaller window and the smaller pad,
	// so it reuses a plane the first layer dirtied.
	{"fused-conv5pad2-conv3pad1", condorir.InputShape{Channels: 1, Height: 8, Width: 8},
		[]condorir.Layer{conv("c1", 5, 1, 2, 3, 0), conv("c2", 3, 1, 1, 5, 0)}},
	{"fused-conv3-maxpool2", condorir.InputShape{Channels: 2, Height: 9, Width: 9},
		[]condorir.Layer{conv("c", 3, 1, 0, 4, 0), pool("p", "MaxPooling", 2, 2, 0, 0)}},
	// 7 and 3 neurons: one neuron tile plus a remainder, then remainder only.
	{"fc-odd-neurons", condorir.InputShape{Channels: 2, Height: 3, Width: 3},
		[]condorir.Layer{
			{Name: "ip1", Type: "InnerProduct", NumOutput: 7, Bias: true, PEGroup: -1},
			{Name: "r", Type: "TanH", PEGroup: -1},
			{Name: "ip2", Type: "InnerProduct", NumOutput: 3, Bias: true, PEGroup: -1},
		}},
	// Stride-1 rows of convLanes and more take the AVX2 tile where the CPU
	// has one. out 8×8: one tile per row; 7 output channels end a band
	// inside a channel quad at every Par.Out of the sweep.
	{"conv3-pad1-one-lane-tile", condorir.InputShape{Channels: 3, Height: 8, Width: 8},
		[]condorir.Layer{conv("c", 3, 1, 1, 7, -1)}},
	// out 3×19: the last tile starts at column 11 and recomputes five
	// positions of the tile before it, through the folded activation.
	{"conv3-overlapping-last-tile-relu", condorir.InputShape{Channels: 2, Height: 5, Width: 21},
		[]condorir.Layer{conv("c", 3, 1, 0, 5, -1), {Name: "r", Type: "ReLU", PEGroup: -1}}},
	// out 3×10, unpadded: the input volume is the stack, and the last tile's
	// eighth position reads its final word under the last channel's last tap.
	{"conv5-unpadded-lane-tile-full-stack", condorir.InputShape{Channels: 3, Height: 7, Width: 14},
		[]condorir.Layer{conv("c", 5, 1, 0, 6, -1)}},
}

func TestGatherEquivalenceSweep(t *testing.T) {
	for ci, tc := range gatherCases {
		ir, ws, net := buildIR(t, tc.name, tc.input, tc.layers, int64(100+ci))
		batch := randomImages(2, net.Input, int64(200+ci))
		for _, in := range []int{1, 2, 3} {
			for _, out := range []int{1, 2, 3} {
				par := condorir.Parallelism{In: in, Out: out}
				t.Run(fmt.Sprintf("%s/in=%d/out=%d", tc.name, in, out), func(t *testing.T) {
					runGatherCase(t, ir, ws, batch, par, false)
				})
				t.Run(fmt.Sprintf("%s/in=%d/out=%d/int8", tc.name, in, out), func(t *testing.T) {
					runGatherCase(t, ir, ws, batch, par, true)
				})
			}
		}
	}
}

// runGatherCase runs one geometry at one parallelism against the word
// oracle on the same spec: float32 must match bit for bit, full RunStats
// included; the packed datapath must stay inside the bound its own recorded
// scales imply. A float32 net with a convolution then runs again as
// im2col_gemm — the float twin of TestInt8DirectAndGEMMIdentical: one kernel
// serves both schedules, so outputs and every counter but the cycles the
// schedule owns must not move.
func runGatherCase(t *testing.T, ir *condorir.Network, ws *condorir.WeightSet, batch []*tensor.Tensor, par condorir.Parallelism, packed bool) {
	t.Helper()
	instantiate := func(algo ConvAlgo) *Accelerator {
		spec, err := BuildSpec(ir)
		if err != nil {
			t.Fatal(err)
		}
		setConvAlgo(spec, algo)
		for _, pe := range spec.PEs {
			pe.Par = par
		}
		if packed {
			spec.WordBits = 8
		}
		acc, err := Instantiate(spec, ws)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	gotOut, gotStats, err := instantiate(AlgoDirect).Run(batch)
	if err != nil {
		t.Fatalf("fast run: %v", err)
	}
	wantOut, wantStats, err := instantiate(AlgoDirect).RunWords(batch)
	if err != nil {
		t.Fatalf("word run: %v", err)
	}
	if packed {
		tol := gotStats.QuantErrorBound()
		if tol <= 0 {
			t.Fatalf("QuantErrorBound = %g, want positive", tol)
		}
		for i := range gotOut {
			if d := tensor.MaxAbsDiff(gotOut[i], wantOut[i]); d > tol {
				t.Errorf("image %d: max abs diff %g exceeds quantization bound %g", i, d, tol)
			}
		}
		return
	}
	assertRunsIdentical(t, "gather", gotOut, gotStats, "word", wantOut, wantStats)
	if ir.Layers[0].Type != "Convolution" {
		return
	}
	gemmOut, gemmStats, err := instantiate(AlgoGEMM).Run(batch)
	if err != nil {
		t.Fatalf("im2col_gemm run: %v", err)
	}
	for i := range gemmStats.PEs {
		gemmStats.PEs[i].Cycles = gotStats.PEs[i].Cycles
	}
	assertRunsIdentical(t, "direct", gotOut, gotStats, "im2col_gemm", gemmOut, gemmStats)
}

// TestWarmSessionSpawnsNoGoroutines pins the goroutine-free datapath: once a
// session is up, running batches creates no goroutine on any datapath or
// parallelism, and Close returns the process to where OpenSession found it.
func TestWarmSessionSpawnsNoGoroutines(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.MNISTImages(2, 5)
	for _, tc := range []struct {
		name   string
		par    int
		packed bool
	}{{"float32", 1, false}, {"float32/par=2", 2, false}, {"int8/par=2", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := BuildSpec(ir)
			if err != nil {
				t.Fatal(err)
			}
			for _, pe := range spec.PEs {
				pe.Par = condorir.Parallelism{In: tc.par, Out: tc.par}
			}
			if tc.packed {
				spec.WordBits = 8
			}
			acc, err := Instantiate(spec, ws)
			if err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()
			sess := acc.OpenSession()
			if _, _, err := sess.RunBatch(batch); err != nil {
				t.Fatal(err)
			}
			warm := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				if _, _, err := sess.RunBatch(batch); err != nil {
					t.Fatal(err)
				}
				if n := runtime.NumGoroutine(); n != warm {
					t.Fatalf("batch %d: %d goroutines, the warm session had %d", i, n, warm)
				}
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			// Close has joined every goroutine; poll briefly to let the
			// runtime retire stacks that are mid-exit.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() != baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before OpenSession", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestSessionGoroutinesPerElement pins what a session runs on: the caller's
// goroutine, and one resident helper per further processor once a batch has
// more than one image — whatever the PEs' port parallelism, since a port is
// modeled, not a goroutine. On LeNet with Par {2,2}, float32 and int8, at
// GOMAXPROCS 2 and 16, a session must start no goroutine when it opens or
// runs one-image batches, exactly GOMAXPROCS−1 on its first two-image batch
// and none after, and Close must return the count to its baseline. The count
// is of the goroutines this package created, read from their stacks, so the
// other tests' goroutines cannot move it.
func TestSessionGoroutinesPerElement(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.MNISTImages(2, 5)
	for _, procs := range []int{2, 16} {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/packed=%v", procs, packed), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				spec, err := BuildSpec(ir)
				if err != nil {
					t.Fatal(err)
				}
				for _, pe := range spec.PEs {
					pe.Par = condorir.Parallelism{In: 2, Out: 2}
				}
				if packed {
					spec.WordBits = 8
				}
				acc, err := Instantiate(spec, ws)
				if err != nil {
					t.Fatal(err)
				}
				baseline := packageGoroutines()
				sess := acc.OpenSession()
				for _, step := range []struct {
					images, helpers int
				}{{0, 0}, {1, 0}, {1, 0}, {2, procs - 1}, {1, procs - 1}, {2, procs - 1}} {
					if _, _, err := sess.RunBatch(batch[:step.images]); err != nil {
						t.Fatal(err)
					}
					if n := packageGoroutines() - baseline; n != step.helpers {
						t.Fatalf("after a %d-image batch the session runs %d goroutines, want %d", step.images, n, step.helpers)
					}
				}
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
				// Close has joined every helper; poll briefly to let the
				// runtime retire stacks that are mid-exit.
				deadline := time.Now().Add(5 * time.Second)
				for packageGoroutines() != baseline {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines of this package after Close, %d before OpenSession", packageGoroutines(), baseline)
					}
					time.Sleep(10 * time.Millisecond)
				}
			})
		}
	}
}

// packageGoroutines counts the live goroutines this package's code started:
// those whose stack names a creator in it.
func packageGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "\ncreated by condor/internal/dataflow.")
		}
		buf = make([]byte, 2*len(buf))
	}
}
