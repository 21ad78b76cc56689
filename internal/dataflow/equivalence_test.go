package dataflow

import (
	"math"
	"runtime"
	"testing"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/tensor"
)

// These tests pin the invariant of the session datapath: Run (workers
// running chunks to completion) and RunWords (one FIFO operation per word,
// the modeled hardware granularity) must produce bit-identical outputs and
// identical RunStats — same stream traffic totals, MACs, windows, modeled
// cycles and DDR bytes. MaxOccupancy is the one excluded quantity: RunWords
// measures it as a high-water mark of a race between producer and consumer,
// nondeterministic even between two word-at-a-time runs, and a session does
// not measure it.

func runEquivalence(t *testing.T, ir *condorir.Network, ws *condorir.WeightSet, batch []*tensor.Tensor) {
	t.Helper()

	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	// Separate instantiations so the datamovers' DDR counters accumulate
	// each path's traffic independently.
	burstAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	wordAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}

	burstOut, burstStats, err := burstAcc.Run(batch)
	if err != nil {
		t.Fatalf("burst run: %v", err)
	}
	wordOut, wordStats, err := wordAcc.RunWords(batch)
	if err != nil {
		t.Fatalf("word run: %v", err)
	}
	assertRunsIdentical(t, "burst", burstOut, burstStats, "word", wordOut, wordStats)
}

// assertRunsIdentical asserts two runs over the same batch produced
// bit-identical outputs and identical RunStats, MaxOccupancy excluded.
// Shared by the burst/word equivalence tests and the port-parallelism /
// compute-unit sweeps in parallel_test.go.
func assertRunsIdentical(t *testing.T, aName string, aOut []*tensor.Tensor, aStats *RunStats, bName string, bOut []*tensor.Tensor, bStats *RunStats) {
	t.Helper()

	// Outputs: bit-identical, not approximately equal — every datapath must
	// preserve the exact floating-point accumulation order.
	if len(aOut) != len(bOut) {
		t.Fatalf("output count %d vs %d", len(aOut), len(bOut))
	}
	for i := range aOut {
		ad, bd := aOut[i].Data(), bOut[i].Data()
		if len(ad) != len(bd) {
			t.Fatalf("image %d: output volume %d vs %d", i, len(ad), len(bd))
		}
		for j := range ad {
			if math.Float32bits(ad[j]) != math.Float32bits(bd[j]) {
				t.Fatalf("image %d element %d: %s %v (%#x) != %s %v (%#x)",
					i, j, aName, ad[j], math.Float32bits(ad[j]), bName, bd[j], math.Float32bits(bd[j]))
			}
		}
	}

	if aStats.Images != bStats.Images {
		t.Errorf("Images: %d vs %d", aStats.Images, bStats.Images)
	}
	if len(aStats.PEs) != len(bStats.PEs) {
		t.Fatalf("PE count %d vs %d", len(aStats.PEs), len(bStats.PEs))
	}
	for i := range aStats.PEs {
		if aStats.PEs[i] != bStats.PEs[i] {
			t.Errorf("PE %d stats differ:\n %s %+v\n %s  %+v", i, aName, aStats.PEs[i], bName, bStats.PEs[i])
		}
	}
	if aStats.DRAM != bStats.DRAM {
		t.Errorf("DRAM traffic differs: %s %+v, %s %+v", aName, aStats.DRAM, bName, bStats.DRAM)
	}
	if len(aStats.Streams) != len(bStats.Streams) {
		t.Fatalf("stream count %d vs %d", len(aStats.Streams), len(bStats.Streams))
	}
	for i := range aStats.Streams {
		as, bs := aStats.Streams[i], bStats.Streams[i]
		if as.Name != bs.Name || as.Depth != bs.Depth || as.Pushes != bs.Pushes || as.Pops != bs.Pops {
			t.Errorf("stream %d differs (MaxOccupancy excluded):\n %s %+v\n %s  %+v", i, aName, as, bName, bs)
		}
	}
}

func TestBurstWordEquivalenceTC1(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, ir, ws, models.USPSImages(4, 7))
}

// TestBurstWordEquivalenceLeNet runs a batch of 16 at GOMAXPROCS 2: two
// chunks of eight, so the FC layers run on the image-lane kernel.
func TestBurstWordEquivalenceLeNet(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	runEquivalence(t, ir, ws, models.MNISTImages(16, 11))
}
