package dataflow_test

import (
	"fmt"
	"runtime"
	"testing"

	"condor"
	"condor/internal/models"
	"condor/internal/quant"
)

// TestPEHelperBudget pins how the port helpers share the processors with
// the PE pipeline, on the LeNet int8 build the explorer picks. Every PE
// executor is a goroutine streaming alongside the others, so a PE gets
// GOMAXPROCS ÷ PEs processors and helpers only from a share of two on: at
// two processors no PE starts a helper, while at two processors per PE
// every PE whose Par is wider than 1 owns one. The helpers are counted on
// the session's worker pools, not from the process's goroutine count.
// (TestParallelPortSingleProcDegrades keeps the one-processor case.)
func TestPEHelperBudget(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	b, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws, Precision: quant.Int8, RunDSE: true})
	if err != nil {
		t.Fatal(err)
	}
	pes, wide := len(b.Spec.PEs), 0
	for _, pe := range b.Spec.PEs {
		if p := pe.Par.Normalize(); max(p.In, p.Out) > 1 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("the explorer gave no PE port parallelism: nothing to budget")
	}
	t.Logf("%d PEs, %d with Par wider than 1", pes, wide)
	batch := models.MNISTImages(2, 5)
	for _, procs := range []int{2, 2 * pes} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			acc, err := b.Fabric()
			if err != nil {
				t.Fatal(err)
			}
			sess := acc.OpenSession()
			defer func() {
				if err := sess.Close(); err != nil {
					t.Error(err)
				}
			}()
			if _, _, err := sess.RunBatch(batch); err != nil {
				t.Fatal(err)
			}
			helpers := sess.PortHelpers()
			for i, pe := range b.Spec.PEs {
				p := pe.Par.Normalize()
				want := 0
				if procs >= 2*pes && max(p.In, p.Out) > 1 {
					want = 1
				}
				if helpers[i] != want {
					t.Errorf("%s (Par %d/%d) started %d helpers at GOMAXPROCS=%d, want %d", pe.ID, p.In, p.Out, helpers[i], procs, want)
				}
			}
		})
	}
}
