package dataflow

import (
	"fmt"
	"runtime"
	"testing"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/tensor"
)

// These tests pin the invariant of parallel-port execution: at any
// Parallelism{In,Out} setting and any compute-unit count, the burst fabric
// (each PE's ports modeled, its layers run inline; the batch sharded across
// cloned CUs) must produce bit-identical outputs and identical merged
// RunStats to the word-at-a-time oracle running the same spec sequentially —
// the port parallelism moves only the schedule, which both sides share, and
// CU shards merge back counter-for-counter.
// MaxOccupancy stays excluded as in the burst/word equivalence tests.

// runParallelCase executes one {Par, CUs} point: the same spec (with every
// PE's port parallelism overridden) is instantiated twice; the burst side
// runs the batch through an n-CU pool, the oracle side through RunWords.
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
	pool := NewCUPool(burstAcc, cus)
	if pool.Size() != cus {
		t.Fatalf("pool size %d, want %d", pool.Size(), cus)
	}
	gotOut, gotStats, err := runPoolBatch(pool, batch)
	if err != nil {
		t.Fatalf("pool run: %v", err)
	}
	wantOut, wantStats, err := wordAcc.RunWords(batch)
	if err != nil {
		t.Fatalf("word run: %v", err)
	}
	assertRunsIdentical(t, "pool", gotOut, gotStats, "word", wantOut, wantStats)
}

// runPoolBatch runs one batch through the pool's resident sessions and
// closes them: the one-shot pool run the sweeps hold against the oracle.
func runPoolBatch(pool *CUPool, batch []*tensor.Tensor) ([]*tensor.Tensor, *RunStats, error) {
	outs, stats, err := pool.RunBatch(batch)
	if cerr := pool.Close(); err == nil && cerr != nil {
		return nil, nil, cerr
	}
	return outs, stats, err
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

// Cloned compute units share one sealed weight store and keep private DDR
// counters; the one-time on-chip configuration load stays accounted on unit
// 0 only, so merged pool traffic equals a single fabric's run exactly (the
// stats assertions above depend on this; here the mechanism is pinned
// directly).
func TestCloneSharesWeightsPrivateCounters(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	clone := acc.Clone()
	if clone.dm.store != acc.dm.store {
		t.Fatal("clone does not share the weight store")
	}
	if clone.dm == acc.dm {
		t.Fatal("clone shares the whole datamover (counters must be private)")
	}
	base := acc.dm.Stats()
	if got := clone.dm.Stats(); got != (DatamoverStats{}) {
		t.Fatalf("clone starts with traffic %+v, want zero", got)
	}
	clone.dm.AccountInput(10)
	if got := acc.dm.Stats(); got != base {
		t.Fatalf("clone traffic leaked into original: %+v vs %+v", got, base)
	}
}

// The weight store rejects writes after sealing: replication is only safe
// because the shared region is provably immutable during execution.
func TestWeightStoreSealedPanics(t *testing.T) {
	dm := NewDatamover()
	dm.LoadWeights("l", []float32{1}, nil)
	dm.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("LoadWeights after Seal did not panic")
		}
	}()
	dm.LoadWeights("l2", []float32{2}, nil)
}
