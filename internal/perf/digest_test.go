package perf_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"condor/internal/board"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/dse"
	"condor/internal/hls"
	"condor/internal/models"
	"condor/internal/nn"
	"condor/internal/perf"
	"condor/internal/quant"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/model_digest.txt from this tree's models")

const digestGolden = "testdata/model_digest.txt"

// TestModelDigest is the analytic twin of dataflow's TestKernelDigest: it
// pins every number the cost models derive from a spec — each PE's synthesis
// estimate (kernel resources, every breakdown entry, MAC lanes), the memory
// planner's on-chip decisions, the pipeline stages, the DDR traffic, the
// per-layer algorithm table and the roofline — over TC1, LeNet and the
// VGG-16 and AlexNet feature stages × {float32, int8} × every
// convolution algorithm some layer qualifies for × three port settings, plus
// the explorer's walk on TC1 and LeNet. The listing must equal the golden
// line for line, so a refactor of the models that moves any of those numbers
// fails here, naming the configurations that moved.
//
// Regenerate the golden only from a tree whose models are trusted (the parent
// of a model change): go test -run TestModelDigest -update.
func TestModelDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// As the kernel digest: elsewhere Go may fuse a float multiply-add and
		// round once where amd64 rounds twice.
		t.Skip("the model digest is recorded on amd64")
	}
	nets := []struct {
		name string
		ir   func() (*condorir.Network, error)
	}{
		{"tc1", func() (*condorir.Network, error) { ir, _, err := models.TC1(); return ir, err }},
		{"lenet", func() (*condorir.Network, error) { ir, _, err := models.LeNet(); return ir, err }},
		{"vgg16-features", func() (*condorir.Network, error) { return models.VGG16Features(), nil }},
		{"alexnet-features", func() (*condorir.Network, error) { return models.AlexNetFeatures(), nil }},
	}
	var lines []string
	for _, n := range nets {
		ir, err := n.ir()
		if err != nil {
			t.Fatal(err)
		}
		flops, err := ir.FLOPs()
		if err != nil {
			t.Fatal(err)
		}
		for _, bits := range []int{32, 8} {
			for _, algo := range []dataflow.ConvAlgo{dataflow.AlgoDirect, dataflow.AlgoGEMM, dataflow.AlgoWinograd} {
				for _, par := range []condorir.Parallelism{{In: 1, Out: 1}, {In: 2, Out: 2}, {In: 4, Out: 1}} {
					spec, err := dataflow.BuildSpec(ir)
					if err != nil {
						t.Fatal(err)
					}
					spec.WordBits = bits
					if !setAlgo(spec, algo) {
						break // no layer qualifies for the algorithm
					}
					for _, pe := range spec.PEs {
						pe.Par = par
					}
					h := sha256.New()
					hashModels(t, h, spec, flops)
					lines = append(lines, fmt.Sprintf("%s/bits=%d/%s/par=%d.%d %x", n.name, bits, algo, par.In, par.Out, h.Sum(nil)))
				}
			}
		}
	}
	for _, n := range nets[:2] {
		ir, err := n.ir()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []quant.Precision{quant.Float32, quant.Int8} {
			for _, o := range []struct {
				name string
				opts dse.Options
			}{
				{"default", dse.Options{}},
				{"table2", dse.Options{FeaturesOnly: true, MaxIterations: 96, MaxPortParallelism: 2}},
			} {
				o.opts.Precisions = []quant.Precision{p}
				res, err := dse.Explore(ir, o.opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", n.name, p, o.name, err)
				}
				h := sha256.New()
				for _, mv := range res.Trace {
					fmt.Fprintf(h, "move %+v\n", mv)
				}
				algos := make([]string, 0, len(res.Algorithms))
				for l, a := range res.Algorithms {
					algos = append(algos, l+"="+a)
				}
				sort.Strings(algos)
				fmt.Fprintf(h, "result %d %s %v\n", res.BottleneckCycles, res.Precision, algos)
				hashReport(t, h, res.Spec, res.Report)
				lines = append(lines, fmt.Sprintf("dse/%s/%s/%s %x", n.name, p, o.name, h.Sum(nil)))
			}
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	if *updateDigest {
		if err := os.WriteFile(digestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d configurations to %s", len(lines), digestGolden)
		return
	}
	raw, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d configurations, the golden has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("configuration %d moved:\n  got  %s\n  want %s", i, lines[i], want[i])
		}
	}
}

// setAlgo assigns algo to every convolution layer that qualifies for it,
// reporting whether any did.
func setAlgo(spec *dataflow.Spec, algo dataflow.ConvAlgo) bool {
	found := false
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			l := &pe.Layers[i]
			if l.Kind != nn.Conv || algo == dataflow.AlgoWinograd && !dataflow.WinogradOK(l.Kernel, l.Stride, l.OutShape) {
				continue
			}
			l.ConvAlgo, found = algo, true
		}
	}
	return found
}

// hashModels runs the memory planner, the synthesis estimate, the pipeline,
// traffic and algorithm models and the roofline over spec, in the order the
// core tier does, and hashes everything they report. Floats print in Go's
// shortest exact form, so a changed last bit changes the hash.
func hashModels(t *testing.T, h hash.Hash, spec *dataflow.Spec, flops int64) {
	t.Helper()
	if err := hls.PlanMemory(spec); err != nil {
		fmt.Fprintf(h, "plan %v\n", err)
	}
	for _, pe := range spec.PEs {
		fmt.Fprintf(h, "onchip %s %v %v\n", pe.ID, pe.WeightsOnChip, pe.PartialsOnChip)
	}
	rep, err := hls.Estimate(spec)
	if err != nil {
		fmt.Fprintf(h, "estimate %v\n", err)
	} else {
		hashReport(t, h, spec, rep)
		b, err := board.Lookup(spec.Board)
		if err != nil {
			t.Fatal(err)
		}
		lanes := 0
		for _, pr := range rep.PEs {
			lanes += pr.MACs
		}
		fmt.Fprintf(h, "roofline %+v\n", perf.AnalyzeRoofline(spec, b, lanes, flops, rep.AchievedMHz))
	}
	for _, s := range perf.Stages(spec) {
		fmt.Fprintf(h, "stage %+v\n", s)
	}
	fmt.Fprintf(h, "ddr %d load %d\n", spec.DDRBytesPerImage(), spec.OnChipLoadBytes())
	for _, r := range perf.ConvAlgoTable(spec) {
		fmt.Fprintf(h, "algos %+v\n", r)
	}
}

// hashReport hashes a synthesis estimate: every PE's kernel, breakdown and
// MAC lanes, then the totals, fit and clock.
func hashReport(t *testing.T, h hash.Hash, spec *dataflow.Spec, rep *hls.Report) {
	t.Helper()
	for i := range rep.PEs {
		pr := &rep.PEs[i]
		fmt.Fprintf(h, "pe %s %d %+v\n", pr.ID, pr.MACs, pr.Kernel)
		bd, err := hls.PEBreakdown(spec, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range bd.Sorted() {
			fmt.Fprintf(h, "  %s %+v\n", k, bd[k])
		}
	}
	fmt.Fprintf(h, "report %+v %+v %+v %v %v %v\n", rep.Datamover, rep.InterFIFOs, rep.Total, rep.Fits, rep.FmaxMHz, rep.AchievedMHz)
}
