package dataflow_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"condor"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/models"
	"condor/internal/quant"
	"condor/internal/tensor"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/kernel_digest.txt from this tree's kernels")

const digestGolden = "testdata/kernel_digest.txt"

// TestKernelDigest pins the fabric's kernels to the bit: it runs a fixed set
// of nets — LeNet and TC1 built end to end, the gather sweep's convolution,
// pool and FC geometries, a LeNet-conv2-shaped layer and two Winograd nets —
// across both element types, three port parallelisms and every applicable
// convolution algorithm, and hashes each run's output bits and deterministic
// RunStats counters. The listing must equal the golden line for line, so a
// kernel rewrite that changes any output bit, scale or counter anywhere in
// the set fails here, naming the runs that moved. The go-kernels subtest
// holds the Go kernels, which a CPU without AVX2 runs everywhere, to the same
// golden on the same runs.
//
// Regenerate the golden only from a tree whose kernels are trusted (the
// parent of a kernel change): go test -run TestKernelDigest -update.
func TestKernelDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The golden is amd64's: elsewhere Go may fuse a float32 multiply-add
		// and round once where amd64 rounds twice.
		t.Skip("the kernel digest is recorded on amd64")
	}
	lines := kernelDigest(t)
	if *updateDigest {
		if err := os.WriteFile(digestGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d runs to %s", len(lines), digestGolden)
		return
	}
	raw, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	compareDigest(t, lines, want)
	t.Run("go-kernels", func(t *testing.T) {
		dataflow.DisableAVX2(t)
		compareDigest(t, kernelDigest(t), want)
	})
}

// compareDigest fails t for every run whose line differs from the golden's.
func compareDigest(t *testing.T, lines, want []string) {
	t.Helper()
	if len(want) != len(lines) {
		t.Fatalf("%d runs, the golden has %d", len(lines), len(want))
	}
	moved := 0
	for i := range lines {
		if lines[i] != want[i] {
			moved++
			t.Errorf("run %d moved:\n  got  %s\n  want %s", i, lines[i], want[i])
		}
	}
	if moved == 0 {
		t.Logf("%d runs bit-identical to the golden", len(lines))
	}
}

// kernelDigest runs the digest's nets and returns one line per run: its name
// and runDigest.
func kernelDigest(t *testing.T) []string {
	var lines []string
	record := func(name string, outs []*tensor.Tensor, stats *dataflow.RunStats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, name+" "+runDigest(outs, stats))
	}

	// The paper's models through the whole core tier: quantized weights, the
	// explorer's parallelism and algorithms, on-chip memory planning.
	for _, m := range []struct {
		name  string
		load  func() (*condorir.Network, *condorir.WeightSet, error)
		batch []*tensor.Tensor
	}{
		{"lenet", models.LeNet, models.MNISTImages(2, 5)},
		{"tc1", models.TC1, models.USPSImages(2, 5)},
	} {
		for _, p := range []quant.Precision{quant.Float32, quant.Int8} {
			for _, dse := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/dse=%v", m.name, p, dse)
				ir, ws, err := m.load()
				if err != nil {
					t.Fatal(err)
				}
				b, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws, Precision: p, RunDSE: dse})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				acc, err := b.Fabric()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				outs, stats, err := acc.Run(m.batch)
				record(name, outs, stats, err)
			}
		}
	}

	type net struct {
		name   string
		input  condorir.InputShape
		layers []condorir.Layer
		algos  []dataflow.ConvAlgo
	}
	direct := []dataflow.ConvAlgo{dataflow.AlgoDirect, dataflow.AlgoGEMM}
	var nets []net
	for _, name := range []string{
		"conv3-stride2-pad1", "conv3-pad2", "conv1x1", "conv5-single-cell",
		"conv3-stride2-relu", "conv3-stride2-full-tiles", "conv3-pad1-lone-channel",
		"fused-conv5pad2-conv3pad1", "fused-conv3-maxpool2", "conv3-pad1-one-lane-tile",
		"conv3-overlapping-last-tile-relu", "conv5-unpadded-lane-tile-full-stack",
		"maxpool3-stride2-pad1", "avgpool3-stride2-pad1-relu", "fc-odd-neurons",
	} {
		in, layers := dataflow.GatherCase(name)
		n := net{name: name, input: in, layers: layers}
		if layers[0].Type == "Convolution" {
			n.algos = direct
		}
		nets = append(nets, n)
	}
	winograd := []dataflow.ConvAlgo{dataflow.AlgoDirect, dataflow.AlgoGEMM, dataflow.AlgoWinograd}
	nets = append(nets,
		net{"lenet-conv2", condorir.InputShape{Channels: 20, Height: 12, Width: 12},
			[]condorir.Layer{dataflow.Conv("conv2", 5, 1, 0, 50, -1)}, direct},
		net{"wg3", condorir.InputShape{Channels: 1, Height: 14, Width: 14}, dataflow.TinyLeNetLayers(), winograd},
		net{"wg3-fused", condorir.InputShape{Channels: 2, Height: 12, Width: 12}, []condorir.Layer{
			dataflow.Conv("c1", 3, 1, 1, 4, 0), dataflow.Conv("c2", 3, 1, 1, 6, 0),
			{Name: "r", Type: "ReLU", PEGroup: -1},
			{Name: "ip", Type: "InnerProduct", NumOutput: 5, Bias: true, PEGroup: -1},
		}, winograd},
	)
	for ni, n := range nets {
		ir, ws, ref := dataflow.BuildIR(t, n.name, n.input, n.layers, int64(300+ni))
		batch := dataflow.RandomImages(2, ref.Input, int64(400+ni))
		algos := n.algos
		if algos == nil {
			algos = []dataflow.ConvAlgo{""}
		}
		for _, bits := range []int{32, 8} {
			for _, par := range []condorir.Parallelism{{In: 1, Out: 1}, {In: 2, Out: 3}, {In: 3, Out: 2}} {
				for _, algo := range algos {
					spec, err := dataflow.BuildSpec(ir)
					if err != nil {
						t.Fatal(err)
					}
					spec.WordBits = bits
					if algo != "" {
						dataflow.SetConvAlgo(spec, algo)
					}
					for _, pe := range spec.PEs {
						pe.Par = par
					}
					name := fmt.Sprintf("%s/bits=%d/par=%d.%d/%s", n.name, bits, par.In, par.Out, algo)
					acc, err := dataflow.Instantiate(spec, ws)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					outs, stats, err := acc.Run(batch)
					record(name, outs, stats, err)
				}
			}
		}
	}

	return lines
}

// runDigest hashes one run: every output bit, then every RunStats counter
// that does not depend on goroutine timing (FIFO occupancy high-water marks
// and burst counts do), the recorded scales and both error bounds.
func runDigest(outs []*tensor.Tensor, s *dataflow.RunStats) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "out %v\n", o.Shape())
		for _, v := range o.Data() {
			binary.Write(h, binary.LittleEndian, math.Float32bits(v))
		}
	}
	fmt.Fprintf(h, "images %d\n", s.Images)
	for _, p := range s.PEs {
		fmt.Fprintf(h, "pe %s %d %d %d %d %d %d %d %x %x\n", p.ID, p.Images, p.Cycles, p.MACs, p.WindowsRead,
			p.ElemsIn, p.ElemsOut, p.SpilledPartial, math.Float64bits(p.MaxRequantScale), math.Float64bits(p.MaxWinogradMag))
	}
	fmt.Fprintf(h, "dram %d %d\n", s.DRAM.BytesRead, s.DRAM.BytesWritten)
	for _, f := range s.Streams {
		fmt.Fprintf(h, "stream %s %d %d %d %d %d %d %d\n", f.Name, f.Depth, f.Pushes, f.Pops,
			f.LanePushes, f.LanePops, f.HeaderPushes, f.HeaderPops)
	}
	fmt.Fprintf(h, "scales %x %x %x\n", math.Float64bits(s.InputScale),
		math.Float64bits(s.QuantErrorBound()), math.Float64bits(s.WinogradErrorBound()))
	return fmt.Sprintf("%x", h.Sum(nil))
}
