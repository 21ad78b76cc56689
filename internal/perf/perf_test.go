package perf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"condor/internal/condorir"
	"condor/internal/dataflow"
)

func TestBatchCyclesSingleStage(t *testing.T) {
	stages := []Stage{{Name: "s", Cycles: 100}}
	if got := BatchCyclesClosedForm(stages, 1); got != 100 {
		t.Fatalf("1 image = %d", got)
	}
	if got := BatchCyclesClosedForm(stages, 5); got != 500 {
		t.Fatalf("5 images = %d", got)
	}
}

func TestBatchCyclesPipelineOverlap(t *testing.T) {
	stages := []Stage{{Cycles: 10}, {Cycles: 10}, {Cycles: 10}}
	// Fill 30 + (n-1)*10 steady state.
	if got := BatchCyclesClosedForm(stages, 1); got != 30 {
		t.Fatalf("fill = %d", got)
	}
	if got := BatchCyclesClosedForm(stages, 4); got != 60 {
		t.Fatalf("batch 4 = %d, want 60", got)
	}
}

func TestBatchCyclesBottleneckDominates(t *testing.T) {
	stages := []Stage{{Cycles: 5}, {Cycles: 50}, {Cycles: 5}}
	// total = fill(60) + (n-1)*bottleneck(50)
	if got := BatchCyclesClosedForm(stages, 10); got != 60+9*50 {
		t.Fatalf("batch 10 = %d", got)
	}
}

// recurrenceCycles evaluates the pipeline recurrence the closed form claims
// to solve, as a table: t[b][s] = max(t[b-1][s], t[b][s-1]) + T[s], image b
// entering stage s once it has left stage s-1 and image b-1 has left s.
func recurrenceCycles(stages []Stage, batch int) int64 {
	if batch <= 0 || len(stages) == 0 {
		return 0
	}
	t := make([][]int64, batch)
	for b := range t {
		t[b] = make([]int64, len(stages))
		for s, st := range stages {
			var ready int64
			if b > 0 {
				ready = t[b-1][s]
			}
			if s > 0 {
				ready = max(ready, t[b][s-1])
			}
			t[b][s] = ready + st.Cycles
		}
	}
	return t[batch-1][len(stages)-1]
}

// Property: the closed form equals the recurrence over 1–12 stages of 0–100
// cycles and batch sizes 1–64; an empty pipeline or a non-positive batch
// takes no cycles.
func TestClosedFormMatchesRecurrence(t *testing.T) {
	f := func(seed int64, nRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		stages := make([]Stage, int(nRaw%12)+1)
		for i := range stages {
			stages[i] = Stage{Cycles: int64(rng.Intn(101))}
		}
		b := int(bRaw%64) + 1
		return BatchCyclesClosedForm(stages, b) == recurrenceCycles(stages, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	one := []Stage{{Cycles: 5}}
	for _, c := range []struct {
		stages []Stage
		batch  int
	}{{nil, 5}, {[]Stage{}, 1}, {one, 0}, {one, -3}} {
		if got := BatchCyclesClosedForm(c.stages, c.batch); got != 0 {
			t.Errorf("%d stages, batch %d: %d cycles, want 0", len(c.stages), c.batch, got)
		}
	}
}

func TestBatchCurveDecreasingAndConverging(t *testing.T) {
	stages := []Stage{{Cycles: 20}, {Cycles: 40}, {Cycles: 30}, {Cycles: 40}}
	batches := []int{1, 2, 4, 8, 16, 32, 64}
	curve, err := BatchCurve(stages, 100, batches)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].MeanMsPerImage > curve[i-1].MeanMsPerImage {
			t.Fatalf("mean time must be non-increasing: %+v", curve)
		}
	}
	// Converges to the bottleneck interval.
	limit := CyclesToMs(Bottleneck(stages), 100)
	last := curve[len(curve)-1].MeanMsPerImage
	if last < limit || last > limit*1.2 {
		t.Fatalf("converged mean %.4f vs bottleneck %.4f", last, limit)
	}
}

func TestBatchCurveErrors(t *testing.T) {
	if _, err := BatchCurve(nil, 0, []int{1}); err == nil {
		t.Fatal("expected frequency error")
	}
	if _, err := BatchCurve(nil, 100, []int{0}); err == nil {
		t.Fatal("expected batch error")
	}
}

func TestSteadyStateGFLOPS(t *testing.T) {
	// 1 MFLOP per image, 1000 cycles bottleneck, 100 MHz → 1e5 img/s → 100 GFLOPS.
	got := SteadyStateGFLOPS(1_000_000, 1000, 100)
	if got < 99.9 || got > 100.1 {
		t.Fatalf("GFLOPS = %v", got)
	}
	if SteadyStateGFLOPS(1, 0, 100) != 0 {
		t.Fatal("zero bottleneck should yield 0")
	}
}

func TestCyclesToMs(t *testing.T) {
	// 100k cycles at 100 MHz = 1 ms.
	if got := CyclesToMs(100000, 100); got != 1 {
		t.Fatalf("CyclesToMs = %v", got)
	}
}

func specForPerf(t *testing.T) *dataflow.Spec {
	t.Helper()
	ir := &condorir.Network{
		Name: "perf", Board: "aws-f1-vu9p", FrequencyMHz: 100,
		Input: condorir.InputShape{Channels: 1, Height: 16, Width: 16},
		Layers: []condorir.Layer{
			{Name: "conv1", Type: "Convolution", KernelSize: 5, NumOutput: 8, Bias: true, PEGroup: -1},
			{Name: "pool1", Type: "AvgPooling", KernelSize: 2, Stride: 2, PEGroup: -1},
			{Name: "fc1", Type: "InnerProduct", NumOutput: 10, Bias: true, PEGroup: -1},
		},
	}
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestStagesFromSpec(t *testing.T) {
	spec := specForPerf(t)
	stages := Stages(spec)
	if len(stages) != 3 {
		t.Fatalf("stage count %d", len(stages))
	}
	for i, pe := range spec.PEs {
		if stages[i].Cycles != pe.CyclesPerImage(spec.Bits()) {
			t.Fatalf("stage %d cycles mismatch", i)
		}
	}
}

func TestFeatureStagesExcludeClassifier(t *testing.T) {
	spec := specForPerf(t)
	fs := FeatureStages(spec)
	if len(fs) != 2 {
		t.Fatalf("feature stages = %d, want 2", len(fs))
	}
	for _, s := range fs {
		if s.Name == "pe2" {
			t.Fatal("classifier PE included in feature stages")
		}
	}
}

func TestLatencyIsSumOfStages(t *testing.T) {
	stages := []Stage{{Cycles: 5}, {Cycles: 7}}
	if Latency(stages) != 12 {
		t.Fatal("latency wrong")
	}
	if got := BatchCyclesClosedForm(stages, 1); got != 12 {
		t.Fatalf("single-image batch %d != latency", got)
	}
}

// The Figure 5 claim: convergence is reached approximately when the batch
// size exceeds the number of pipeline stages.
func TestConvergenceKneeNearStageCount(t *testing.T) {
	stages := make([]Stage, 8)
	for i := range stages {
		stages[i] = Stage{Cycles: 100}
	}
	curve, err := BatchCurve(stages, 100, []int{1, 8, 128})
	if err != nil {
		t.Fatal(err)
	}
	limit := CyclesToMs(100, 100)
	atKnee := curve[1].MeanMsPerImage
	converged := curve[2].MeanMsPerImage
	// At batch = #stages the mean is within 2x of the limit; by 8x it is
	// within 6%.
	if atKnee > 2*limit {
		t.Fatalf("knee point %.4f too far from limit %.4f", atKnee, limit)
	}
	if converged > 1.1*limit {
		t.Fatalf("converged %.4f not near limit %.4f", converged, limit)
	}
}
