package dataflow_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"condor"
	"condor/internal/dataflow"
	"condor/internal/models"
	"condor/internal/quant"
)

// TestSessionSchedulingInvariance runs one 16-image LeNet batch on a warm
// session at GOMAXPROCS 1, 2 and 16, float32 and int8 (with the explorer's
// parallelism and algorithms), the three sessions opened in turn on one
// fabric. A PE yields the processor at every frame
// hand-off, so each setting interleaves the PEs, the feeder and the
// collector differently; the outputs and the deterministic RunStats counters
// (runDigest) must not move, and the session must run exactly its PEs, the
// feeder and the collector at every setting.
func TestSessionSchedulingInvariance(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.MNISTImages(16, 7)
	for _, c := range []struct {
		precision quant.Precision
		dse       bool
	}{{quant.Float32, false}, {quant.Int8, true}} {
		t.Run(c.precision.String(), func(t *testing.T) {
			b, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws, Precision: c.precision, RunDSE: c.dse})
			if err != nil {
				t.Fatal(err)
			}
			acc, err := b.Fabric()
			if err != nil {
				t.Fatal(err)
			}
			digests := map[int]string{}
			for _, procs := range []int{1, 2, 16} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					baseline := dataflow.PackageGoroutines()
					sess := acc.OpenSession()
					if _, _, err := sess.RunBatch(batch); err != nil { // warm the session
						t.Fatal(err)
					}
					outs, stats, err := sess.RunBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					if n, want := dataflow.PackageGoroutines()-baseline, len(acc.Spec.PEs)+2; n != want {
						t.Errorf("the session runs %d goroutines, want %d (%d PEs, the feeder and the collector)", n, want, len(acc.Spec.PEs))
					}
					digests[procs] = runDigest(outs, stats)
					if err := sess.Close(); err != nil {
						t.Fatal(err)
					}
					// Close has joined every goroutine; let the runtime retire
					// stacks that are mid-exit before the next baseline.
					for deadline := time.Now().Add(5 * time.Second); dataflow.PackageGoroutines() != baseline; time.Sleep(10 * time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines of the package after Close, %d before OpenSession", dataflow.PackageGoroutines(), baseline)
						}
					}
				})
			}
			for _, procs := range []int{2, 16} {
				d, ok := digests[procs]
				if want, ran := digests[1]; ok && ran && d != want {
					t.Errorf("GOMAXPROCS %d: outputs or counters digest %s, GOMAXPROCS 1 gives %s", procs, d, want)
				}
			}
		})
	}
}
