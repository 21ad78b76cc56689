// Package perf models the performance of a Condor accelerator: the
// high-level pipeline formed by the concurrently-active PEs is timed at
// image granularity by its closed-form recurrence, using the per-PE cycle
// model shared with the functional fabric. This layer produces the paper's
// evaluation quantities: mean time per image versus batch size (Figure 5)
// and steady-state GFLOPS (Tables 1 and 2).
package perf

import (
	"fmt"

	"condor/internal/dataflow"
	"condor/internal/nn"
)

// Stage is one pipeline stage: a PE with its per-image service time.
type Stage struct {
	Name   string
	Cycles int64
}

// Stages maps every PE of the spec to a pipeline stage, timed by its layer
// schedules at the spec's word width (dataflow.PE.CyclesPerImage).
func Stages(spec *dataflow.Spec) []Stage {
	out := make([]Stage, len(spec.PEs))
	for i, pe := range spec.PEs {
		out[i] = Stage{Name: pe.ID, Cycles: pe.CyclesPerImage(spec.Bits())}
	}
	return out
}

// FeatureStages returns only the features-extraction PEs' stages — the
// sub-pipeline whose throughput Table 2 of the paper reports.
func FeatureStages(spec *dataflow.Spec) []Stage {
	var out []Stage
	for _, pe := range spec.PEs {
		if pe.IsFeatureExtraction() {
			out = append(out, Stage{Name: pe.ID, Cycles: pe.CyclesPerImage(spec.Bits())})
		}
	}
	return out
}

// Bottleneck returns the largest stage time: the steady-state initiation
// interval of the pipeline.
func Bottleneck(stages []Stage) int64 {
	var max int64
	for _, s := range stages {
		if s.Cycles > max {
			max = s.Cycles
		}
	}
	return max
}

// BatchCyclesClosedForm returns the cycle at which the last of batch images,
// entering back to back, leaves the last stage, every stage holding one
// image at a time. The heterogeneous-pipeline recurrence
//
//	t[b][s] = max(t[b-1][s], t[b][s-1]) + T[s]
//
// is the longest path through the batch × stage grid: every image crosses
// every stage once, and the remaining batch−1 images queue at the slowest,
// so t[N-1][S-1] = Σ T[s] + (N−1)·max T[s] — the fill latency plus N−1
// initiation intervals (the paper's Figure 5).
func BatchCyclesClosedForm(stages []Stage, batch int) int64 {
	if batch <= 0 || len(stages) == 0 {
		return 0
	}
	return Latency(stages) + int64(batch-1)*Bottleneck(stages)
}

// BatchPoint is one sample of the Figure 5 curve.
type BatchPoint struct {
	Batch          int
	TotalCycles    int64
	MeanMsPerImage float64
}

// BatchCurve evaluates the mean processing time per image for each batch
// size at the given clock — the series of the paper's Figure 5.
func BatchCurve(stages []Stage, freqMHz float64, batches []int) ([]BatchPoint, error) {
	if freqMHz <= 0 {
		return nil, fmt.Errorf("perf: non-positive frequency %v", freqMHz)
	}
	out := make([]BatchPoint, 0, len(batches))
	for _, b := range batches {
		if b <= 0 {
			return nil, fmt.Errorf("perf: non-positive batch size %d", b)
		}
		total := BatchCyclesClosedForm(stages, b)
		out = append(out, BatchPoint{
			Batch:          b,
			TotalCycles:    total,
			MeanMsPerImage: CyclesToMs(total, freqMHz) / float64(b),
		})
	}
	return out, nil
}

// CyclesToMs converts a cycle count at freqMHz to milliseconds.
func CyclesToMs(cycles int64, freqMHz float64) float64 {
	return float64(cycles) / (freqMHz * 1e3)
}

// SteadyStateGFLOPS returns the pipeline's sustained throughput: at steady
// state one image completes every bottleneck interval, so
//
//	GFLOPS = FLOPs/image × freq / bottleneck / 1e9.
func SteadyStateGFLOPS(flopsPerImage, bottleneckCycles int64, freqMHz float64) float64 {
	if bottleneckCycles <= 0 {
		return 0
	}
	imagesPerSecond := freqMHz * 1e6 / float64(bottleneckCycles)
	return float64(flopsPerImage) * imagesPerSecond / 1e9
}

// Latency returns the single-image latency (the pipeline fill time): the
// sum of all stage times.
func Latency(stages []Stage) int64 {
	var sum int64
	for _, s := range stages {
		sum += s.Cycles
	}
	return sum
}

// ConvAlgoRow compares the modeled per-image cycles of one conv layer under
// every applicable algorithm — the evidence the DSE's per-layer algorithm
// moves act on, and the table the experiments report.
type ConvAlgoRow struct {
	PE       string
	Layer    string
	Selected dataflow.ConvAlgo

	// Cycles under each algorithm, at the layer's PE parallelism and the
	// spec's lane packing. WinogradCycles is 0 when the layer does not
	// qualify for F(2,3).
	DirectCycles   int64
	GEMMCycles     int64
	WinogradCycles int64
}

// ConvAlgoTable evaluates every conv layer of the spec under each
// algorithm (Winograd only where it qualifies), from the layer's schedule
// lowered as if it ran that algorithm; the spec is not modified.
func ConvAlgoTable(spec *dataflow.Spec) []ConvAlgoRow {
	var out []ConvAlgoRow
	bits := spec.Bits()
	for _, pe := range spec.PEs {
		for i, l := range pe.Layers {
			if l.Kind != nn.Conv {
				continue
			}
			row := ConvAlgoRow{PE: pe.ID, Layer: l.Name, Selected: l.Algo(),
				DirectCycles: pe.ScheduleAs(i, bits, dataflow.AlgoDirect).Cycles(),
				GEMMCycles:   pe.ScheduleAs(i, bits, dataflow.AlgoGEMM).Cycles()}
			if dataflow.WinogradOK(l.Kernel, l.Stride, l.OutShape) {
				row.WinogradCycles = pe.ScheduleAs(i, bits, dataflow.AlgoWinograd).Cycles()
			}
			out = append(out, row)
		}
	}
	return out
}
