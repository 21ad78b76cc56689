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

// TestSessionSchedulingInvariance runs LeNet batches of 1, 3, 8, 9 and 16
// images on a warm session at GOMAXPROCS 1, 2 and 16, float32 and int8 (with
// the explorer's parallelism and algorithms), the sessions opened in turn
// on one fabric. The processor count sets how many workers a session has and
// so how a batch is cut into chunks and which worker runs which; the outputs
// and the deterministic RunStats counters (runDigest) must not move, and
// Close must return the package's goroutines to where OpenSession found
// them.
func TestSessionSchedulingInvariance(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batches := []int{1, 3, 8, 9, 16}
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
			digests := map[int]map[int]string{} // procs → batch size → digest
			for _, procs := range []int{1, 2, 16} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					digests[procs] = map[int]string{}
					baseline := dataflow.PackageGoroutines()
					for _, n := range batches {
						sess := acc.OpenSession()
						batch := models.MNISTImages(n, 7)
						if _, _, err := sess.RunBatch(batch); err != nil { // warm the session
							t.Fatal(err)
						}
						outs, _, err := sess.RunBatch(batch)
						if err != nil {
							t.Fatal(err)
						}
						digests[procs][n] = runDigest(outs, sess.Stats())
						if err := sess.Close(); err != nil {
							t.Fatal(err)
						}
					}
					// Close has joined every helper; let the runtime retire
					// stacks that are mid-exit before comparing.
					for deadline := time.Now().Add(5 * time.Second); dataflow.PackageGoroutines() != baseline; time.Sleep(10 * time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines of the package after Close, %d before OpenSession", dataflow.PackageGoroutines(), baseline)
						}
					}
				})
			}
			for _, procs := range []int{2, 16} {
				for _, n := range batches {
					d, ok := digests[procs][n]
					if want, ran := digests[1][n]; ok && ran && d != want {
						t.Errorf("GOMAXPROCS %d, batch %d: outputs or counters digest %s, GOMAXPROCS 1 gives %s", procs, n, d, want)
					}
				}
			}
		})
	}
}
