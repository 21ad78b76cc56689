package condor

import (
	"net/http/httptest"
	"testing"
	"time"

	"condor/internal/aws"
	"condor/internal/models"
	"condor/internal/quant"
	"condor/internal/tensor"
)

// warmSlotLeNet deploys LeNet at the given precision twice: on slot 0 of an
// F1 instance behind an in-process cloud endpoint, and on a local board.
// Both are released when the test ends.
func warmSlotLeNet(tb testing.TB, prec quant.Precision) (*CloudDeployment, *LocalDeployment) {
	tb.Helper()
	build := func(board string) *Build {
		ir, ws, err := models.LeNet()
		if err != nil {
			tb.Fatal(err)
		}
		b, err := New().BuildAccelerator(Input{IR: ir, Weights: ws, Board: board, Precision: prec})
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Nanosecond})
	ts := httptest.NewServer(srv)
	tb.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	cloud, err := New().DeployCloud(build(models.F1Board), CloudConfig{
		Endpoint: ts.URL, License: aws.LicenseFromAMI(), Bucket: "condor-warm",
	})
	if err != nil {
		tb.Fatal(err)
	}
	local, err := New().DeployLocal(build(localBoard))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(local.Close)
	return cloud, local
}

// TestWarmSlotSpawnsNoGoroutines: a warm F1 slot serves batch after batch
// on its resident fabric. A hundred warm batches must leave the goroutine
// count where the first batch left it, so nothing a batch starts outlives
// it, and the outputs stay those of the local board bit for bit. That the
// slot skips the reload is TestWarmSlotKeepsWeights' (internal/aws) to show.
func TestWarmSlotSpawnsNoGoroutines(t *testing.T) {
	cloud, local := warmSlotLeNet(t, quant.Float32)
	imgs := models.MNISTImages(4, 9)
	want, _, err := local.Infer(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cloud.Infer(imgs); err != nil {
		t.Fatal(err)
	}
	g0 := goroutines()
	for i := 0; i < 100; i++ {
		outs, _, err := cloud.Infer(imgs)
		if err != nil {
			t.Fatal(err)
		}
		for k := range outs {
			if !tensor.AllClose(outs[k], want[k], 0) {
				t.Fatalf("batch %d image %d: cloud output differs from the local board's", i, k)
			}
		}
	}
	// A goroutine of the last request's HTTP exchange may still be
	// unwinding: wait for the count, boundedly, as assertNoLeak does.
	deadline := time.Now().Add(5 * time.Second)
	for goroutines() > g0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g1 := goroutines(); g1 > g0 {
		t.Fatalf("%d goroutines after 100 warm batches, %d after the first", g1, g0)
	}
}

// TestCloudInferAllocations is TestLocalInferAllocations on an F1 slot: a
// warm batch is one HTTP round trip carrying the images in and the outputs
// back, client and in-process endpoint counted together. The slot keeps its
// weights and host program, so what is left is the HTTP exchange, the
// staging of the request and the reply, and the output views: nothing per
// image.
func TestCloudInferAllocations(t *testing.T) {
	for _, prec := range []quant.Precision{quant.Float32, quant.Int8} {
		t.Run(prec.String(), func(t *testing.T) {
			cloud, _ := warmSlotLeNet(t, prec)
			for _, n := range []int{1, 16} {
				batch := models.MNISTImages(n, 3)
				infer := func() {
					outs, _, err := cloud.Infer(batch)
					if err != nil {
						t.Fatal(err)
					}
					if len(outs) != n {
						t.Fatalf("%d outputs for %d images", len(outs), n)
					}
				}
				infer() // warm: weights loaded, session open, connection up
				if a := testing.AllocsPerRun(20, infer); a > 160 {
					t.Errorf("%.1f allocations per %d-image cloud Infer, want at most 160", a, n)
				} else {
					t.Logf("%.1f allocations per %d-image cloud Infer", a, n)
				}
			}
		})
	}
}
