// The serving tier end to end: one accelerator design is deployed onto a
// heterogeneous pool — two local boards plus both FPGA slots of an
// f1.4xlarge behind a simulated cloud endpoint — and a serve.Server
// multiplexes a burst of concurrent clients onto it with dynamic batching,
// admission control and least-loaded scheduling. This is the traffic-facing
// layer the paper's cloud integration points at: the framework builds and
// deploys the accelerator, the serving tier turns it into an inference
// service.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"condor"
	"condor/internal/aws"
	"condor/internal/models"
	"condor/internal/serve"
)

func main() {
	// A simulated cloud endpoint that also injects transient 503s; the
	// client's jittered retries absorb them.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	cloud := aws.NewServer(aws.Options{
		AFIGenerationDelay: 100 * time.Millisecond,
		TransientErrorRate: 0.05,
	})
	go http.Serve(ln, cloud) //nolint:errcheck
	endpoint := "http://" + ln.Addr().String()

	f := condor.New()
	ir, ws, err := models.TC1()
	if err != nil {
		log.Fatal(err)
	}

	// Local boards: one build, two programmed devices.
	localBuild, err := f.BuildAccelerator(condor.Input{IR: ir, Weights: ws, Board: "ku115"})
	if err != nil {
		log.Fatal(err)
	}
	var pool []serve.Backend
	for i := 0; i < 2; i++ {
		dep, err := f.DeployLocal(localBuild)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("pool += local board", dep.ID())
		pool = append(pool, dep)
	}

	// Cloud slots: the F1 build goes through S3 → AFI → instance, then each
	// programmed slot becomes an independently scheduled backend.
	ir2, ws2, err := models.TC1()
	if err != nil {
		log.Fatal(err)
	}
	cloudBuild, err := f.BuildAccelerator(condor.Input{IR: ir2, Weights: ws2})
	if err != nil {
		log.Fatal(err)
	}
	dep, err := f.DeployCloud(cloudBuild, condor.CloudConfig{
		Endpoint: endpoint, License: aws.LicenseFromAMI(),
		Bucket: "condor-serving-example", InstanceType: "f1.4xlarge", Slots: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Terminate() //nolint:errcheck
	for _, sb := range dep.SlotBackends() {
		fmt.Println("pool += F1 slot", sb.ID())
		pool = append(pool, sb)
	}

	srv, err := serve.New(serve.Config{
		Backends:   pool,
		MaxBatch:   8,
		QueueDepth: 128,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A burst of concurrent single-image clients.
	const clients = 48
	imgs := models.USPSImages(clients, 11)
	var ok, backpressure atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, _, err := srv.Submit(ctx, imgs[c]); err != nil {
				backpressure.Add(1)
				return
			}
			ok.Add(1)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}

	st := srv.Stats()
	fmt.Printf("\n%d clients in %v: %d served, %d rejected/expired\n",
		clients, wall.Round(time.Millisecond), ok.Load(), backpressure.Load())
	fmt.Printf("batches: %d dispatched, size histogram %v (largest %d)\n",
		st.Batches, st.BatchSizeHist, st.MaxBatchFormed())
	fmt.Printf("latency: kernel p50/p95/p99 = %.2f/%.2f/%.2f ms, end-to-end p50 = %.2f ms\n",
		st.KernelMsP50, st.KernelMsP95, st.KernelMsP99, st.TotalMsP50)
	for _, b := range st.Backends {
		fmt.Printf("  backend %-22s %3d batches %3d images  busy %.2f ms (util %.1f%%)\n",
			b.ID, b.Batches, b.Images, b.BusyMs, 100*b.Utilization)
	}
}
