package dataflow

import (
	"fmt"
	"testing"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/tensor"
)

// These tests pin the tentpole contract of the packed int8 datapath: at any
// Parallelism{In,Out} setting and on any replicated compute unit, the packed
// fabric (4 int8 lanes per FIFO word, int32 accumulators, per-tensor
// requantization at every PE boundary) must agree with the float32 word-at-a-time oracle to
// within the bound its own recorded quantization scales imply — bounded
// error, not bit identity; the float fabric's bit-identity harness lives in
// equivalence_test.go and does not apply here.

// runQuantCase executes one {Par, CUs} point of the sweep. One spec (with
// WordBits=8 and every PE's port parallelism overridden) backs both sides:
// the packed side runs the batch on the last of cus replicated units
// (replica); the oracle side runs
// RunWords, which always executes in float32 regardless of WordBits. The
// tolerance is not a magic constant — it is RunStats.QuantErrorBound(),
// derived from the input scale and per-PE requantization scales the packed
// run itself recorded.
func runQuantCase(t *testing.T, ir *condorir.Network, ws *condorir.WeightSet, batch []*tensor.Tensor, par condorir.Parallelism, cus int) {
	t.Helper()
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	spec.WordBits = 8
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
		t.Fatalf("packed run: %v", err)
	}
	wantOut, _, err := oracleAcc.RunWords(batch)
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}

	tol := gotStats.QuantErrorBound()
	if tol <= 0 {
		t.Fatalf("QuantErrorBound = %g, want positive (InputScale %g)", tol, gotStats.InputScale)
	}
	if len(gotOut) != len(wantOut) {
		t.Fatalf("output count %d vs %d", len(gotOut), len(wantOut))
	}
	agree := 0
	for i := range gotOut {
		if d := tensor.MaxAbsDiff(gotOut[i], wantOut[i]); d > tol {
			t.Errorf("image %d: max abs diff %g exceeds quant error bound %g", i, d, tol)
		}
		if gotOut[i].ArgMax() == wantOut[i].ArgMax() {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(gotOut)); frac < 0.75 {
		t.Errorf("argmax agreement %.2f below 0.75 (%d/%d images)", frac, agree, len(gotOut))
	}

	// The packed run must actually have moved int8 lanes: every stream edge
	// carries packed payload words, so the lane counters are nonzero
	// (they stay zero on the float32 datapath by construction).
	var lanes int64
	for _, s := range gotStats.Streams {
		lanes += s.LanePushes
	}
	if lanes == 0 {
		t.Error("packed run recorded zero lane pushes — the float path ran instead")
	}
	// Modeled cycles must agree with the measured fabric on the packed path
	// too: both sides read the lanes-aware layer schedules.
	if model, meas := modelBottleneck(spec), gotStats.BottleneckCycles(); model != meas {
		t.Errorf("modeled bottleneck %d != measured %d", model, meas)
	}
}

// modelBottleneck computes the modeled per-image bottleneck for a spec
// directly from the lane-aware layer schedules (the perf package re-derives
// the same quantity; duplicating the fold here keeps the test self-contained
// in package dataflow).
func modelBottleneck(spec *Spec) int64 {
	var worst int64
	for _, pe := range spec.PEs {
		if c := pe.CyclesPerImage(spec.Bits()); c > worst {
			worst = c
		}
	}
	return worst
}

func TestQuantEquivalenceTC1(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.USPSImages(4, 7)
	for _, in := range []int{1, 2, 4} {
		for _, out := range []int{1, 2, 4} {
			for _, cus := range []int{1, 2, 4} {
				name := fmt.Sprintf("in=%d/out=%d/cus=%d", in, out, cus)
				t.Run(name, func(t *testing.T) {
					runQuantCase(t, ir, ws, batch, condorir.Parallelism{In: in, Out: out}, cus)
				})
			}
		}
	}
}

func TestQuantEquivalenceLeNet(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.MNISTImages(3, 11)
	for _, p := range []int{1, 2, 4} {
		name := fmt.Sprintf("in=%d/out=%d/cus=%d", p, p, p)
		t.Run(name, func(t *testing.T) {
			runQuantCase(t, ir, ws, batch, condorir.Parallelism{In: p, Out: p}, p)
		})
	}
}

// The int8 fabric's run-time DDR byte counters must equal the analytic
// model at WordBits=8 exactly, the same invariant traffic_test.go pins for
// the float path: activations and weights move as 1-byte codes, partial
// spills stay 4-byte int32, and the per-frame scale-header words ride free
// (matching the analytic model, which charges payload bytes only).
func TestQuantDDRTrafficMatchesAnalytic(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	spec.WordBits = 8
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	batch := models.USPSImages(3, 9)
	_, stats, err := acc.Run(batch)
	if err != nil {
		t.Fatal(err)
	}
	measured := stats.DRAM.BytesRead + stats.DRAM.BytesWritten
	want := spec.OnChipLoadBytes() + int64(len(batch))*spec.DDRBytesPerImage()
	if measured != want {
		t.Fatalf("measured %d bytes, analytic model says %d", measured, want)
	}
}
