package dataflow

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/tensor"
)

// These tests pin the invariant of parallel-port execution: at any
// Parallelism{In,Out} setting, the burst fabric (each PE's ports modeled,
// its layers run inline) must produce bit-identical outputs and identical
// RunStats to the word-at-a-time oracle running the same spec sequentially —
// the port parallelism moves only the schedule, which both sides share. The
// cus axis runs the burst side on the last of that many compute units
// Replicate makes from one instantiation: a unit that shares the plan must
// be exactly the fabric, DDR traffic included.
// MaxOccupancy stays excluded as in the burst/word equivalence tests.

// runParallelCase executes one {Par, CUs} point: the same spec (with every
// PE's port parallelism overridden) is instantiated twice; the burst side
// runs the batch on a replicated unit, the oracle side through RunWords.
// Sharing one spec keeps the layer schedules — which depend on Par —
// identical on both sides, so the stats comparison is exact.
func runParallelCase(t *testing.T, ir *condorir.Network, ws *condorir.WeightSet, batch []*tensor.Tensor, par condorir.Parallelism, cus int) {
	t.Helper()
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range spec.PEs {
		pe.Par = par
	}
	burstAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	wordAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, gotStats, err := replica(t, burstAcc, cus).Run(batch)
	if err != nil {
		t.Fatalf("cu%d run: %v", cus-1, err)
	}
	wantOut, wantStats, err := wordAcc.RunWords(batch)
	if err != nil {
		t.Fatalf("word run: %v", err)
	}
	assertRunsIdentical(t, "burst", gotOut, gotStats, "word", wantOut, wantStats)
}

// replica returns the last of cus compute units replicated from acc — for
// cus > 1 a unit that shares acc's plan.
func replica(t *testing.T, acc *Accelerator, cus int) *Accelerator {
	t.Helper()
	units := acc.Replicate(cus)
	if len(units) != cus {
		t.Fatalf("Replicate(%d) made %d units", cus, len(units))
	}
	return units[cus-1]
}

// withProcs runs the sweep body at a given GOMAXPROCS.
func withProcs(t *testing.T, procs int, body func(t *testing.T)) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	body(t)
}

func TestParallelPortEquivalenceTC1(t *testing.T) {
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
					runParallelCase(t, ir, ws, batch, condorir.Parallelism{In: in, Out: out}, cus)
				})
			}
		}
	}
}

func TestParallelPortEquivalenceLeNet(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.MNISTImages(3, 11)
	for _, p := range []int{1, 2, 4} {
		name := fmt.Sprintf("in=%d/out=%d/cus=%d", p, p, p)
		t.Run(name, func(t *testing.T) {
			runParallelCase(t, ir, ws, batch, condorir.Parallelism{In: p, Out: p}, p)
		})
	}
}

// One processor must neither deadlock the pipeline of PE goroutines nor
// change a bit — the explicit check that parallelism settings are
// semantics-free on any host.
func TestParallelPortSingleProcDegrades(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.USPSImages(3, 5)
	withProcs(t, 1, func(t *testing.T) {
		runParallelCase(t, ir, ws, batch, condorir.Parallelism{In: 4, Out: 4}, 2)
	})
}

// Replicated compute units share one plan and hold no counters: run at once
// on the same batch, each reports exactly the RunStats of the other, the
// one-time configuration load included, and a unit's second run reports what
// its first did.
func TestCloneSharesWeightsPrivateCounters(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range spec.PEs {
		pe.WeightsOnChip = true // so there is a configuration load to count
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	units := acc.Replicate(2)
	if units[0] != acc {
		t.Fatal("unit 0 is not the instantiated fabric")
	}
	clone := units[1]
	if &clone.plan[0] != &acc.plan[0] {
		t.Fatal("replica does not share the plan")
	}
	if clone.trackPrefix != "cu1/" || acc.trackPrefix != "cu0/" {
		t.Fatalf("track prefixes %q, %q; want cu0/, cu1/", acc.trackPrefix, clone.trackPrefix)
	}
	batch := models.USPSImages(3, 9)
	outs := make([][]*tensor.Tensor, len(units))
	stats := make([]*RunStats, len(units))
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for i, u := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], stats[i], errs[i] = u.Run(batch)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cu%d: %v", i, err)
		}
	}
	if load := spec.OnChipLoadBytes(); load == 0 || stats[1].DRAM.BytesRead <= load {
		t.Fatalf("replica read %d DDR bytes, want more than the %d-byte configuration load", stats[1].DRAM.BytesRead, load)
	}
	assertRunsIdentical(t, "cu1", outs[1], stats[1], "cu0", outs[0], stats[0])
	again, againStats, err := clone.Run(batch)
	if err != nil {
		t.Fatal(err)
	}
	assertRunsIdentical(t, "cu1 again", again, againStats, "cu1", outs[1], stats[1])
}

// TestReplicatedUnitsMatchOneFabric runs one LeNet batch on both units of
// Replicate(2) at once, in float32 and in int8: each must equal a single
// fabric's run bit for bit, outputs and RunStats (MaxOccupancy aside).
func TestReplicatedUnitsMatchOneFabric(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.MNISTImages(4, 17)
	for _, bits := range []int{32, 8} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			spec, err := BuildSpec(ir)
			if err != nil {
				t.Fatal(err)
			}
			spec.WordBits = bits
			single, err := Instantiate(spec, ws)
			if err != nil {
				t.Fatal(err)
			}
			wantOut, wantStats, err := single.Run(batch)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := Instantiate(spec, ws)
			if err != nil {
				t.Fatal(err)
			}
			units := acc.Replicate(2)
			outs := make([][]*tensor.Tensor, len(units))
			stats := make([]*RunStats, len(units))
			errs := make([]error, len(units))
			var wg sync.WaitGroup
			for i, u := range units {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[i], stats[i], errs[i] = u.Run(batch)
				}()
			}
			wg.Wait()
			for i := range units {
				if errs[i] != nil {
					t.Fatalf("cu%d: %v", i, errs[i])
				}
				assertRunsIdentical(t, fmt.Sprintf("cu%d", i), outs[i], stats[i], "single", wantOut, wantStats)
				if stats[i].InputScale != wantStats.InputScale {
					t.Errorf("cu%d: input scale %g, single fabric %g", i, stats[i].InputScale, wantStats.InputScale)
				}
			}
		})
	}
}
