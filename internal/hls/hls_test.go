package hls

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"condor/internal/board"
	"condor/internal/condorir"
	"condor/internal/dataflow"
)

func lenetIR() *condorir.Network {
	return &condorir.Network{
		Name: "LeNet", Board: "aws-f1-vu9p", FrequencyMHz: 180,
		Input: condorir.InputShape{Channels: 1, Height: 28, Width: 28},
		Layers: []condorir.Layer{
			{Name: "conv1", Type: "Convolution", KernelSize: 5, Stride: 1, NumOutput: 20, Bias: true, PEGroup: -1},
			{Name: "pool1", Type: "MaxPooling", KernelSize: 2, Stride: 2, PEGroup: -1},
			{Name: "conv2", Type: "Convolution", KernelSize: 5, Stride: 1, NumOutput: 50, Bias: true, PEGroup: -1},
			{Name: "pool2", Type: "MaxPooling", KernelSize: 2, Stride: 2, PEGroup: -1},
			{Name: "ip1", Type: "InnerProduct", NumOutput: 500, Bias: true, PEGroup: -1},
			{Name: "relu1", Type: "ReLU", PEGroup: -1},
			{Name: "ip2", Type: "InnerProduct", NumOutput: 10, Bias: true, PEGroup: -1},
			{Name: "prob", Type: "Softmax", PEGroup: -1},
		},
	}
}

func lenetSpec(t *testing.T) *dataflow.Spec {
	t.Helper()
	spec, err := dataflow.BuildSpec(lenetIR())
	if err != nil {
		t.Fatal(err)
	}
	if err := PlanMemory(spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestEstimateLeNetFitsF1(t *testing.T) {
	rep, err := Estimate(lenetSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fits {
		t.Fatalf("LeNet must fit the F1 board: %+v", rep.KernelTotal)
	}
	u := rep.Utilization
	if u.LUT <= 0 || u.LUT > 0.5 {
		t.Fatalf("LUT utilization %.3f out of plausible range", u.LUT)
	}
	if u.DSP <= 0 || u.DSP > 0.2 {
		t.Fatalf("DSP utilization %.3f out of plausible range", u.DSP)
	}
	// LeNet's BRAM is dominated by the on-chip FC weights (the paper reports
	// 24.38%); the model should land in the same band.
	if u.BRAM < 0.10 || u.BRAM > 0.45 {
		t.Fatalf("BRAM utilization %.3f outside LeNet band", u.BRAM)
	}
	if rep.AchievedMHz < 100 {
		t.Fatalf("achieved clock %.0f implausibly low", rep.AchievedMHz)
	}
}

func TestPlanMemoryPutsLeNetFCWeightsOnChip(t *testing.T) {
	spec := lenetSpec(t)
	var ip1 *dataflow.PE
	for _, pe := range spec.PEs {
		for _, l := range pe.Layers {
			if l.Name == "ip1" {
				ip1 = pe
			}
		}
	}
	if ip1 == nil {
		t.Fatal("ip1 PE not found")
	}
	if !ip1.WeightsOnChip {
		t.Fatal("LeNet ip1 weights (1.6 MB) fit VU9P BRAM and should be cached on-chip")
	}
	if !ip1.PartialsOnChip {
		t.Fatal("ip1 partials (500 words) must be on-chip")
	}
}

func TestPlanMemorySmallBoardSpillsWeights(t *testing.T) {
	ir := lenetIR()
	ir.Board = "zc706"
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	if err := PlanMemory(spec); err != nil {
		t.Fatal(err)
	}
	onChip := 0
	for _, pe := range spec.PEs {
		if pe.WeightsOnChip {
			onChip++
		}
	}
	// The 545-BRAM ZC706 cannot hold all of LeNet's weights on-chip.
	allPEs := len(spec.PEs)
	if onChip == allPEs {
		t.Fatal("zc706 should not fit every weight buffer on-chip")
	}
}

func TestEstimateRejectsVGGClassifier(t *testing.T) {
	// VGG-16 fc1: 25088 x 4096 = 102.8M words — beyond the HLS array limit,
	// "not synthesizable with the current methodology" (paper, Section 4).
	ir := &condorir.Network{
		Name: "vgg-fc", Board: "aws-f1-vu9p", FrequencyMHz: 150,
		Input: condorir.InputShape{Channels: 512, Height: 7, Width: 7},
		Layers: []condorir.Layer{
			{Name: "fc6", Type: "InnerProduct", NumOutput: 4096, Bias: true, PEGroup: -1},
		},
	}
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(spec); err == nil {
		t.Fatal("expected synthesis rejection for the VGG-16 classifier")
	} else if !strings.Contains(err.Error(), "not synthesizable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEstimateDSPAdderConfigDependsOnClock(t *testing.T) {
	ir := lenetIR()
	ir.FrequencyMHz = 100 // below the DSP-adder threshold
	specLow, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	repLow, err := Estimate(specLow)
	if err != nil {
		t.Fatal(err)
	}
	repHigh, err := Estimate(lenetSpec(t)) // 180 MHz
	if err != nil {
		t.Fatal(err)
	}
	if repLow.KernelTotal.DSP <= repHigh.KernelTotal.DSP {
		t.Fatalf("low-clock design should use more DSP (adders): %v vs %v",
			repLow.KernelTotal.DSP, repHigh.KernelTotal.DSP)
	}
	if repHigh.KernelTotal.LUT <= repLow.KernelTotal.LUT {
		t.Fatalf("high-clock design should use more LUT: %v vs %v",
			repHigh.KernelTotal.LUT, repLow.KernelTotal.LUT)
	}
}

func TestEstimateParallelismScalesDSP(t *testing.T) {
	ir := lenetIR()
	seq, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ir.Layers {
		ir.Layers[i].Parallelism = condorir.Parallelism{In: 1, Out: 2}
	}
	par, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	repSeq, err := Estimate(seq)
	if err != nil {
		t.Fatal(err)
	}
	repPar, err := Estimate(par)
	if err != nil {
		t.Fatal(err)
	}
	if repPar.KernelTotal.DSP < 1.5*repSeq.KernelTotal.DSP {
		t.Fatalf("2x output parallelism should roughly double datapath DSP: %v vs %v",
			repPar.KernelTotal.DSP, repSeq.KernelTotal.DSP)
	}
}

func TestFmaxModelDegradesWithUtilization(t *testing.T) {
	b, _ := board.Lookup("aws-f1-vu9p")
	low := fmaxModel(b, board.Utilization{LUT: 0.1})
	high := fmaxModel(b, board.Utilization{LUT: 0.8})
	if low <= high {
		t.Fatalf("fmax should degrade with utilization: %v vs %v", low, high)
	}
	if floor := fmaxModel(b, board.Utilization{LUT: 5}); floor < 0.19*b.MaxClockMHz {
		t.Fatalf("fmax floor violated: %v", floor)
	}
}

func TestBramForWords(t *testing.T) {
	if bramForWords(0, 32) != 0 {
		t.Fatal("zero words should need zero BRAM")
	}
	// 576 words = 18432 bits = exactly one BRAM18 = 0.5 BRAM36.
	if got := bramForWords(576, 32); got != 0.5 {
		t.Fatalf("bramForWords(576, 32) = %v", got)
	}
	if got := bramForWords(577, 32); got != 1.0 {
		t.Fatalf("bramForWords(577, 32) = %v", got)
	}
	// LeNet ip1: 400500 words ≈ 348 BRAM36.
	got := bramForWords(400500, 32)
	if got < 340 || got > 360 {
		t.Fatalf("ip1 weights = %v BRAM36", got)
	}
}

func TestFifoCostSRLvsBRAM(t *testing.T) {
	srl := fifoCost(16, 32)
	if srl.BRAM != 0 {
		t.Fatal("shallow FIFO should not use BRAM")
	}
	deep := fifoCost(4096, 32)
	if deep.BRAM <= 0 {
		t.Fatal("deep FIFO should use BRAM")
	}
}

func TestGeneratePECode(t *testing.T) {
	spec := lenetSpec(t)
	for _, pe := range spec.PEs {
		src := GeneratePECode(pe)
		if !strings.Contains(src, "#pragma HLS PIPELINE II=1") {
			t.Fatalf("%s: missing pipeline pragma:\n%s", pe.ID, src)
		}
		if !strings.Contains(src, "void "+pe.ID+"(") {
			t.Fatalf("%s: missing entry function", pe.ID)
		}
		for _, l := range pe.Layers {
			if !strings.Contains(src, l.Name) {
				t.Fatalf("%s: missing layer %s in generated code", pe.ID, l.Name)
			}
		}
	}
}

func TestGeneratePECodeDeterministic(t *testing.T) {
	spec := lenetSpec(t)
	if GeneratePECode(spec.PEs[0]) != GeneratePECode(spec.PEs[0]) {
		t.Fatal("code generation must be deterministic")
	}
}

func TestGenerateFilterCode(t *testing.T) {
	spec := lenetSpec(t)
	pe := spec.PEs[0] // conv1
	l := &pe.Layers[0]
	for idx := range pe.Chain.Taps {
		src := GenerateFilterCode(pe.Chain, idx, l)
		if !strings.Contains(src, "to_pe.write(v)") {
			t.Fatalf("filter %d: missing selection path", idx)
		}
		if idx < len(pe.Chain.Taps)-1 && !strings.Contains(src, "next.write(v)") {
			t.Fatalf("filter %d: missing forward path", idx)
		}
		if idx == len(pe.Chain.Taps)-1 && strings.Contains(src, "next.write(v)") {
			t.Fatal("last filter must not forward")
		}
	}
}

func TestGenerateFilterCodeInactiveTap(t *testing.T) {
	chain, err := dataflow.NewFilterChain(5, 28)
	if err != nil {
		t.Fatal(err)
	}
	spec := lenetSpec(t)
	// Use pool geometry (k=2) against the k=5 chain: taps outside 2x2 are
	// inactive and must only forward.
	var pool *dataflow.LayerHW
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			if pe.Layers[i].Name == "pool1" {
				pool = &pe.Layers[i]
			}
		}
	}
	src := GenerateFilterCode(chain, 0, pool) // tap (4,4): inactive for k=2
	if strings.Contains(src, "to_pe.write(v)") {
		t.Fatal("inactive filter should not select elements")
	}
	if !strings.Contains(src, "inactive") {
		t.Fatal("inactive filter should be marked")
	}
}

func TestGenerateHostCode(t *testing.T) {
	spec := lenetSpec(t)
	src := GenerateHostCode(spec)
	for _, want := range []string{"condor_init", "LeNet.xclbin", "condor_enqueue", KernelName(spec)} {
		if !strings.Contains(src, want) {
			t.Fatalf("host code missing %q:\n%s", want, src)
		}
	}
}

func TestKernelNameSanitized(t *testing.T) {
	spec := lenetSpec(t)
	spec.Name = "my net-v2"
	if got := KernelName(spec); got != "condor_my_net_v2" {
		t.Fatalf("kernel name = %q", got)
	}
}

func TestSortedBreakdownDeterministic(t *testing.T) {
	spec := lenetSpec(t)
	rep, err := Estimate(spec)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := PEBreakdown(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := bd.Sorted()
	var sum board.Resources
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			t.Fatal("breakdown keys not sorted")
		}
		sum = sum.Add(bd[k])
	}
	if len(keys) == 0 || sum != rep.PEs[0].Kernel {
		t.Fatalf("breakdown %v sums to %+v, PE kernel is %+v", bd, sum, rep.PEs[0].Kernel)
	}
}

func TestGenerateProject(t *testing.T) {
	spec := lenetSpec(t)
	p, err := GenerateProject(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Shared header, Tcl script, one source per PE, one per filter of each
	// features-extraction PE (two 5x5 chains + two 2x2 chains = 58 filters).
	wantFilters := 0
	for _, pe := range spec.PEs {
		if pe.Chain != nil {
			wantFilters += len(pe.Chain.Taps)
		}
	}
	wantFiles := 2 + len(spec.PEs) + wantFilters
	if len(p.Files) != wantFiles {
		t.Fatalf("project has %d files, want %d", len(p.Files), wantFiles)
	}
	tcl := p.Files["run_hls.tcl"]
	for _, want := range []string{"open_project condor_LeNet", "csynth_design", "create_clock"} {
		if !strings.Contains(tcl, want) {
			t.Fatalf("tcl missing %q:\n%s", want, tcl)
		}
	}
	hdr := p.Files["condor_types.h"]
	if !strings.Contains(hdr, "CONDOR_WORD_BITS 32") {
		t.Fatalf("header missing word bits:\n%s", hdr)
	}
	// Every generated source is referenced by the Tcl script.
	for _, path := range p.Paths() {
		if strings.HasPrefix(path, "src/") && !strings.Contains(tcl, path) {
			t.Fatalf("tcl does not add %s", path)
		}
	}
}

func TestProjectWriteTo(t *testing.T) {
	spec := lenetSpec(t)
	p, err := GenerateProject(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := p.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	for _, path := range p.Paths() {
		if _, err := os.Stat(filepath.Join(dir, path)); err != nil {
			t.Fatalf("missing %s: %v", path, err)
		}
	}
}
