package condor

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"condor/internal/aws"
	"condor/internal/fleet"
	"condor/internal/models"
	"condor/internal/sdaccel"
	"condor/internal/serve"
	"condor/internal/tensor"
)

// leakHeapSlack is how far live heap may end above its baseline after the
// measured cycles: room for the bookkeeping a long-lived endpoint keeps per
// cycle (an AFI record and its 4 KB xclbin, a terminated instance) but far
// below one leaked LeNet weight set (1.7 MB).
const leakHeapSlack = 1 << 20

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// goroutines closes the default transport's idle keep-alive connections —
// whose goroutines, and their servers', otherwise exit on an idle timer —
// and counts what is left.
func goroutines() int {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return runtime.NumGoroutine()
}

// assertNoLeak is the lifecycle contract every tier is held to: after one
// warm cycle (buckets created, pools grown) n more create → use → release
// cycles must leave the goroutine count back at its baseline and the live
// heap within leakHeapSlack of it. Goroutines get a bounded wait, because a
// joined goroutine may still be unwinding when its owner's Close returns.
// The count may end below the baseline: a goroutine an earlier test left
// behind can exit meanwhile.
func assertNoLeak(t *testing.T, n int, cycle func(t *testing.T)) {
	t.Helper()
	cycle(t)
	g0, h0 := goroutines(), liveHeap()
	for i := 0; i < n; i++ {
		cycle(t)
		if t.Failed() {
			t.Fatalf("cycle %d failed", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for goroutines() > g0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	g1, h1 := goroutines(), liveHeap()
	t.Logf("%d cycles: goroutines %d → %d, live heap %.2f → %.2f MB", n, g0, g1, float64(h0)/1e6, float64(h1)/1e6)
	if g1 > g0 {
		t.Errorf("%d goroutines after %d cycles, %d after the warm one (%+.1f per cycle)", g1, n, g0, float64(g1-g0)/float64(n))
	}
	if h1 > h0+leakHeapSlack {
		t.Errorf("live heap grew %.2f MB over %d cycles (%.0f KB per cycle), slack %.2f MB",
			float64(h1-h0)/1e6, n, float64(h1-h0)/1e3/float64(n), float64(leakHeapSlack)/1e6)
	}
}

// TestLifecycleCloud: the paper's cloud flow — build, deploy on an F1
// instance, infer, terminate — against one long-lived endpoint. A terminated
// instance must release its slot's fabric: the parsed weights, the
// instantiated compute units and their resident session goroutines.
func TestLifecycleCloud(t *testing.T) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Quiesce()

	in := toolflowInput(t)
	cfg := CloudConfig{Endpoint: ts.URL, License: aws.LicenseFromAMI(), Bucket: "condor-lifecycle"}
	img := models.MNISTImages(1, 1)
	f := New()
	assertNoLeak(t, 50, func(t *testing.T) {
		b, err := f.BuildAccelerator(in)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := f.DeployCloud(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dep.Infer(img); err != nil {
			t.Fatal(err)
		}
		if err := dep.Terminate(); err != nil {
			t.Fatal(err)
		}
		if err := dep.Terminate(); err != nil {
			t.Fatalf("second Terminate: %v", err)
		}
	})
}

// localLeNet builds LeNet for the on-premise board the local legs deploy on.
func localLeNet(t *testing.T) *Build {
	t.Helper()
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().BuildAccelerator(Input{IR: ir, Weights: ws, Board: localBoard})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLifecycleLocal: a replicated local deployment releases both compute
// units' fabrics on Close, and a closed device refuses work with a typed
// error instead of re-instantiating.
func TestLifecycleLocal(t *testing.T) {
	b := localLeNet(t)
	imgs := models.MNISTImages(2, 4)
	f := New()
	assertNoLeak(t, 50, func(t *testing.T) {
		dep, err := f.DeployLocalCUs(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, img := range imgs {
			wg.Add(1)
			go func(img *tensor.Tensor) {
				defer wg.Done()
				if _, _, err := dep.Infer([]*tensor.Tensor{img}); err != nil {
					t.Error(err)
				}
			}(img)
		}
		wg.Wait()
		dep.Close()
		dep.Close()
		if _, _, err := dep.Infer(imgs[:1]); !errors.Is(err, sdaccel.ErrDeviceClosed) {
			t.Fatalf("Infer after Close = %v, want sdaccel.ErrDeviceClosed", err)
		}
	})
}

// TestLifecycleServe: a serving node over a replicated board's CU backends —
// start, ten concurrent requests, Shutdown, then Close the deployment.
func TestLifecycleServe(t *testing.T) {
	b := localLeNet(t)
	imgs := models.MNISTImages(10, 5)
	f := New()
	assertNoLeak(t, 50, func(t *testing.T) {
		dep, err := f.DeployLocalCUs(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		var pool []serve.Backend
		for _, cb := range dep.CUBackends() {
			pool = append(pool, cb)
		}
		s, err := serve.New(serve.Config{Backends: pool, MaxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, img := range imgs {
			wg.Add(1)
			go func(img *tensor.Tensor) {
				defer wg.Done()
				if _, _, err := s.Submit(context.Background(), img); err != nil {
					t.Error(err)
				}
			}(img)
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i := 0; i < 2; i++ {
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		}
		dep.Close()
	})
}

// TestLifecycleFleet: a router with an attached autoscaler over the F1 fleet
// model — start, scale up, scale down, Close. Scale-down terminates the
// instance, which frees its slots' devices on the endpoint.
func TestLifecycleFleet(t *testing.T) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	assertNoLeak(t, 50, func(t *testing.T) {
		fm, err := aws.NewFleetModel(aws.FleetModelConfig{SpinUp: time.Millisecond},
			aws.NewClient(ts.URL, aws.LicenseFromAMI()))
		if err != nil {
			t.Fatal(err)
		}
		pressure := 0.9
		scrape := func() []fleet.NodeMetrics {
			return []fleet.NodeMetrics{{URL: "node", QueueDepth: pressure * 100, QueueCapacity: 100}}
		}
		// The control loop's interval outlasts the cycle: Step drives it.
		as := fleet.NewAutoscaler(fleet.AutoscalerConfig{Interval: time.Hour, ScaleDownAfter: 1}, scrape, fm)
		rt := fleet.NewRouter(fleet.RouterConfig{})
		rt.AttachAutoscaler(as)
		rt.Start()
		as.Step()
		if fm.Launches() != 1 {
			t.Fatalf("%d launches after a hot step, want 1", fm.Launches())
		}
		pressure = 0
		as.Step()
		if fm.Terminates() != 1 {
			t.Fatalf("%d terminates after a calm step, want 1", fm.Terminates())
		}
		rt.Close()
		rt.Close()
	})
}

// TestLifecycleAWSServer: an endpoint discarded with instances still running
// releases their devices on Close — two deployments, each with a resident
// session from one inference, left for Server.Close to terminate.
func TestLifecycleAWSServer(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	f := New()
	b, err := f.BuildAccelerator(Input{IR: ir, Weights: ws})
	if err != nil {
		t.Fatal(err)
	}
	img := models.USPSImages(1, 6)
	assertNoLeak(t, 50, func(t *testing.T) {
		srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Nanosecond})
		ts := httptest.NewServer(srv)
		for i := 0; i < 2; i++ {
			dep, err := f.DeployCloud(b, CloudConfig{Endpoint: ts.URL, License: aws.LicenseFromAMI(), Bucket: "condor-left-running"})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := dep.Infer(img); err != nil {
				t.Fatal(err)
			}
		}
		ts.Close()
		srv.Close()
		srv.Close()
	})
}
