package condor

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/aws"
	"condor/internal/models"
	"condor/internal/serve"
	"condor/internal/tensor"
)

// localBoard is an on-premise board from the catalogue (not cloud-only).
const localBoard = "ku115"

// TestDeployLocalUniqueDeviceIDs: a pool of local deployments must model
// distinct cards, not alias one "fpga0".
func TestDeployLocalUniqueDeviceIDs(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().BuildAccelerator(Input{IR: ir, Weights: ws, Board: localBoard})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		dep, err := New().DeployLocal(b)
		if err != nil {
			t.Fatal(err)
		}
		if seen[dep.ID()] {
			t.Fatalf("deployment %d reuses device id %q", i, dep.ID())
		}
		seen[dep.ID()] = true
	}
}

// mixedPool builds the same network for an on-premise board and for the F1,
// then assembles a heterogeneous serving pool: nLocal local boards (each
// replicated into cus compute units, every unit its own backend when cus > 1)
// plus the programmed slots of one F1 instance behind the given endpoint.
func mixedPool(t *testing.T, endpoint string, nLocal, cus, slots int) []serve.Backend {
	t.Helper()
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	f := New()
	var pool []serve.Backend

	localBuild, err := f.BuildAccelerator(Input{IR: ir, Weights: ws, Board: localBoard})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nLocal; i++ {
		dep, err := f.DeployLocalCUs(localBuild, cus)
		if err != nil {
			t.Fatal(err)
		}
		if cus > 1 {
			for _, cb := range dep.CUBackends() {
				pool = append(pool, cb)
			}
		} else {
			pool = append(pool, dep)
		}
	}

	ir2, ws2, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	cloudBuild, err := f.BuildAccelerator(Input{IR: ir2, Weights: ws2})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := f.DeployCloud(cloudBuild, CloudConfig{
		Endpoint: endpoint, License: aws.LicenseFromAMI(),
		Bucket:       fmt.Sprintf("condor-serve-test-%d", time.Now().UnixNano()),
		InstanceType: "f1.4xlarge", Slots: slots,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Terminate() }) //nolint:errcheck
	for _, sb := range dep.SlotBackends() {
		pool = append(pool, sb)
	}
	return pool
}

// TestServeStressMixedPool is the serving acceptance gate: 64 concurrent
// clients against a pool of four backends (one local board replicated into
// two compute-unit backends, plus two F1 slots of one instance, reached
// through a cloud endpoint that injects transient faults). Run under -race.
// Every request must either complete or fail with an explicit
// backpressure/deadline error, and the stats must show that dynamic
// batching actually coalesced requests.
func TestServeStressMixedPool(t *testing.T) {
	stressMixedPool(t)
}

// TestServeStressMixedPoolSingleProc re-runs the acceptance gate at
// GOMAXPROCS=1: the fabric's worker pools degrade to the sequential
// schedule and every CU/slot backend still settles every request — the
// parallel-port machinery must be semantics-free on a single-core host.
func TestServeStressMixedPoolSingleProc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	stressMixedPool(t)
}

func stressMixedPool(t *testing.T) {
	cloud := aws.NewServer(aws.Options{
		AFIGenerationDelay: time.Millisecond,
		TransientErrorRate: 0.05,
		TransientErrorSeed: 7,
	})
	ts := httptest.NewServer(cloud)
	defer ts.Close()

	pool := mixedPool(t, ts.URL, 1, 2, 2)
	if len(pool) != 4 {
		t.Fatalf("pool has %d backends, want 4", len(pool))
	}
	s, err := serve.New(serve.Config{
		Backends:   pool,
		MaxBatch:   8,
		QueueDepth: 256,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 64, 3
	imgs := models.USPSImages(clients, 99)
	var completed, rejected, expired, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				out, _, err := s.Submit(ctx, imgs[c])
				cancel()
				switch {
				case err == nil:
					if out == nil || out.Len() == 0 {
						t.Errorf("client %d: empty output without error", c)
					}
					completed.Add(1)
				case errors.Is(err, serve.ErrQueueFull):
					rejected.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				default:
					// Backend faults surface explicitly too (the injected
					// cloud 503s are absorbed by client retries, so none
					// are expected here — but an explicit error is still a
					// settled outcome, not a drop).
					t.Logf("client %d: backend error: %v", c, err)
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	total := completed.Load() + rejected.Load() + expired.Load() + failed.Load()
	if total != clients*perClient {
		t.Fatalf("settled %d of %d requests: some were silently dropped", total, clients*perClient)
	}
	if completed.Load() == 0 {
		t.Fatal("no request completed")
	}

	st := s.Stats()
	if st.Admitted != st.Completed+st.Expired+st.Failed {
		t.Fatalf("stats leak: admitted %d != completed %d + expired %d + failed %d",
			st.Admitted, st.Completed, st.Expired, st.Failed)
	}
	if st.MaxBatchFormed() <= 1 {
		t.Fatalf("batch histogram %v: dynamic batching never formed a batch > 1", st.BatchSizeHist)
	}
	if len(st.Backends) != 4 {
		t.Fatalf("stats report %d backends, want 4", len(st.Backends))
	}
	var poolImages uint64
	for _, b := range st.Backends {
		poolImages += b.Images
	}
	if poolImages < st.Completed {
		t.Fatalf("backends ran %d images, %d completed", poolImages, st.Completed)
	}
	t.Logf("stress: %d completed, %d rejected, %d expired; batches %v; p50/p95/p99 kernel %.2f/%.2f/%.2f ms",
		completed.Load(), rejected.Load(), expired.Load(), st.BatchSizeHist,
		st.KernelMsP50, st.KernelMsP95, st.KernelMsP99)
}

// TestServeMixedPoolSpreadsLoad checks the least-loaded scheduler actually
// uses the whole heterogeneous pool under sustained traffic.
func TestServeMixedPoolSpreadsLoad(t *testing.T) {
	cloud := aws.NewServer(aws.Options{AFIGenerationDelay: time.Millisecond})
	ts := httptest.NewServer(cloud)
	defer ts.Close()

	pool := mixedPool(t, ts.URL, 1, 1, 2)
	s, err := serve.New(serve.Config{Backends: pool, MaxBatch: 2, QueueDepth: 128})
	if err != nil {
		t.Fatal(err)
	}
	imgs := models.USPSImages(8, 3)
	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Submit(ctx, imgs[i%len(imgs)]) //nolint:errcheck
		}(i)
	}
	wg.Wait()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	busy := 0
	for _, b := range st.Backends {
		if b.Batches > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of %d backends did work: %+v", busy, len(st.Backends), st.Backends)
	}
}

// TestServeEndToEndOutputsMatchDirectInference: the serving pipeline must
// return the same numbers a direct Infer on a deployment produces.
func TestServeEndToEndOutputsMatch(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().BuildAccelerator(Input{IR: ir, Weights: ws, Board: localBoard})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := New().DeployLocal(b)
	if err != nil {
		t.Fatal(err)
	}
	img := models.USPSImages(1, 5)[0]
	direct, _, err := dep.Infer([]*tensor.Tensor{img})
	if err != nil {
		t.Fatal(err)
	}

	s, err := serve.New(serve.Config{Backends: []serve.Backend{dep}, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	served, _, err := s.Submit(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEq(direct[0].Shape(), served.Shape()) {
		t.Fatalf("served shape %v != direct %v", served.Shape(), direct[0].Shape())
	}
	for i, v := range direct[0].Data() {
		if served.Data()[i] != v {
			t.Fatalf("served output differs from direct inference at word %d: %v != %v", i, served.Data()[i], v)
		}
	}
}
