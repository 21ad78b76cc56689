// Command condor-serve is the inference serving frontend of the Condor
// backend: it builds an accelerator for a catalogued model, deploys it onto
// a pool of backends — local boards and/or F1 slots of a cloud endpoint
// such as cmd/awsmock — and serves single-image inference over HTTP with
// dynamic batching, admission control and least-loaded scheduling.
//
// Serve a pool of two local boards plus the slots of an F1 instance:
//
//	awsmock -addr 127.0.0.1:8780 &
//	condor-serve -addr 127.0.0.1:8781 -model tc1 -local 2 \
//	    -endpoint http://127.0.0.1:8780 -instance-type f1.4xlarge -slots 2
//
// Endpoints:
//
//	POST /infer   {"image":[...]}  single NCHW image, row-major float32
//	GET  /healthz                  liveness + accepted input shape
//	GET  /readyz                   readiness: 503 while the pool is still
//	                               warming and again once draining begins
//	GET  /statsz                   queue depth, batch histogram, utilization
//	GET  /metricsz                 the same figures in Prometheus text form,
//	                               plus per-device and cloud-client counters
//
// The listener comes up before the backend pool builds, answering /healthz
// (liveness) immediately while /readyz stays 503 — a fleet router admits the
// node only once the pool is warm. With -fleet the node registers itself
// with a condor-fleet router when ready and deregisters on drain:
//
//	condor-serve -addr 127.0.0.1:8781 -fleet http://127.0.0.1:8790
//
// The probe mode drives one round against a running server and exits
// non-zero on failure (the CI smoke test):
//
//	condor-serve -probe http://127.0.0.1:8781
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"condor"
	"condor/internal/aws"
	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/obs"
	"condor/internal/quant"
	"condor/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8781", "HTTP listen address")
		model      = flag.String("model", "tc1", "model to serve: tc1 | lenet")
		local      = flag.Int("local", 1, "number of local boards to program")
		localBoard = flag.String("local-board", "ku115", "board id for local deployments")
		cus        = flag.Int("cus", 1, "compute units (replicated kernel instances) per local board")
		dtype      = flag.String("dtype", "float32", "fabric numeric format: float32 | int8 (int8 serves on the packed datapath)")
		endpoint   = flag.String("endpoint", "", "cloud endpoint URL (e.g. awsmock); empty disables the cloud pool")
		bucket     = flag.String("bucket", "condor-serve", "S3 bucket for cloud deployments")
		instType   = flag.String("instance-type", "f1.2xlarge", "F1 instance type for the cloud pool")
		slots      = flag.Int("slots", 1, "F1 slots to program and schedule")
		maxBatch   = flag.Int("max-batch", 8, "most queued requests one dispatch takes")
		queueDepth = flag.Int("queue", 64, "admission queue bound (backpressure beyond it)")
		reqTimeout = flag.Duration("request-timeout", 2*time.Second, "per-request serving deadline")
		probe      = flag.String("probe", "", "probe a running condor-serve at this URL and exit")
		fleetURL   = flag.String("fleet", "", "condor-fleet router to register with once ready (empty disables)")
		advertise  = flag.String("advertise", "", "URL the router reaches this node at (default http://<addr>)")
		traceReq   = flag.String("trace-requests", "", "write a Chrome trace of per-request spans here on shutdown")
		pprofOn    = flag.Bool("pprof", false, "expose Go profiling under /debug/pprof (opt-in; do not enable on untrusted networks)")
	)
	flag.Parse()

	if *probe != "" {
		if err := runProbe(*probe); err != nil {
			fmt.Fprintln(os.Stderr, "condor-serve: probe:", err)
			os.Exit(1)
		}
		fmt.Println("probe ok")
		return
	}
	opts := serveOptions{
		addr: *addr, model: *model,
		local: *local, localBoard: *localBoard, cus: *cus, dtype: *dtype,
		endpoint: *endpoint, bucket: *bucket, instType: *instType, slots: *slots,
		maxBatch: *maxBatch, queueDepth: *queueDepth,
		reqTimeout: *reqTimeout,
		fleetURL:   *fleetURL, advertise: *advertise, tracePath: *traceReq,
		pprofOn: *pprofOn,
	}
	if opts.advertise == "" {
		opts.advertise = "http://" + opts.addr
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "condor-serve:", err)
		os.Exit(1)
	}
}

// serveOptions carries the resolved flag set into run.
type serveOptions struct {
	addr, model         string
	local               int
	localBoard          string
	cus                 int
	dtype               string
	endpoint, bucket    string
	instType            string
	slots               int
	maxBatch            int
	queueDepth          int
	reqTimeout          time.Duration
	fleetURL, advertise string
	tracePath           string
	pprofOn             bool
}

func modelIR(model string) (*condorir.Network, *condorir.WeightSet, error) {
	switch model {
	case "tc1":
		return models.TC1()
	case "lenet":
		return models.LeNet()
	default:
		return nil, nil, fmt.Errorf("unknown model %q (tc1 | lenet)", model)
	}
}

// swapHandler atomically replaces its delegate, so the listener can come up
// with a warming handler and swap in the real mux once the pool is built.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) set(h http.Handler) { s.h.Store(h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// warmingHandler answers while the backend pool is still building: liveness
// succeeds (the process is up), readiness refuses (no capacity yet) — the
// split a fleet router needs to avoid routing to a cold node.
func warmingHandler(input serve.InputShape) http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v) //nolint:errcheck
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, serve.HealthResponse{Status: "warming", Input: input})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Error string `json:"error"`
		}{"warming: backend pool is still building"})
	})
	return mux
}

func run(o serveOptions) error {
	if o.local <= 0 && o.endpoint == "" {
		return fmt.Errorf("nothing to serve: need -local > 0 and/or -endpoint")
	}
	// The input geometry is known from the catalogue before any backend
	// exists; the warming handler advertises it so probes can pre-build
	// request bodies.
	ir, _, err := modelIR(o.model)
	if err != nil {
		return err
	}
	prec, err := quant.ParsePrecision(o.dtype)
	if err != nil {
		return err
	}
	input := serve.InputShape{Channels: ir.Input.Channels, Height: ir.Input.Height, Width: ir.Input.Width}

	// Listen before building the pool: liveness is immediate, readiness
	// arrives with the swap below.
	swap := &swapHandler{}
	swap.set(warmingHandler(input))
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           swap,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("listening on http://%s (warming: pool build in progress)\n", o.addr)

	f := &condor.Framework{Logf: func(format string, a ...any) {
		fmt.Printf("[condor] "+format+"\n", a...)
	}}

	var pool []serve.Backend

	// Local boards: one build for the on-premise board, one deployment per
	// device.
	if o.local > 0 {
		ir, ws, err := modelIR(o.model)
		if err != nil {
			return err
		}
		build, err := f.BuildAccelerator(condor.Input{IR: ir, Weights: ws, Board: o.localBoard, Precision: prec})
		if err != nil {
			return fmt.Errorf("local build: %w", err)
		}
		for i := 0; i < o.local; i++ {
			dep, err := f.DeployLocalCUs(build, o.cus)
			if err != nil {
				return fmt.Errorf("local deployment %d: %w", i, err)
			}
			defer dep.Close() // after the drain below: the pool is idle by then
			if o.cus > 1 {
				// Each replicated kernel instance joins the pool as its own
				// backend, so the scheduler keeps cus batches in flight per card.
				for _, cb := range dep.CUBackends() {
					fmt.Printf("backend pool += local board %s (%s)\n", cb.ID(), o.localBoard)
					pool = append(pool, cb)
				}
			} else {
				fmt.Printf("backend pool += local board %s (%s)\n", dep.ID(), o.localBoard)
				pool = append(pool, dep)
			}
		}
	}

	// Cloud slots: a separate F1 build goes through S3 → AFI → instance,
	// then every programmed slot joins the pool as its own backend.
	if o.endpoint != "" {
		ir, ws, err := modelIR(o.model)
		if err != nil {
			return err
		}
		build, err := f.BuildAccelerator(condor.Input{IR: ir, Weights: ws, Board: models.F1Board, Precision: prec})
		if err != nil {
			return fmt.Errorf("cloud build: %w", err)
		}
		dep, err := f.DeployCloud(build, condor.CloudConfig{
			Endpoint: o.endpoint, License: aws.LicenseFromAMI(),
			Bucket: o.bucket, InstanceType: o.instType, Slots: o.slots,
		})
		if err != nil {
			return fmt.Errorf("cloud deployment: %w", err)
		}
		defer dep.Terminate() //nolint:errcheck
		for _, sb := range dep.SlotBackends() {
			fmt.Printf("backend pool += F1 slot %s\n", sb.ID())
			pool = append(pool, sb)
		}
	}

	srv, err := serve.New(serve.Config{
		Backends:   pool,
		MaxBatch:   o.maxBatch,
		QueueDepth: o.queueDepth,
	})
	if err != nil {
		return err
	}

	// Prometheus exposition: the serving pipeline's figures plus the
	// per-device execution counters and cloud-client retry accounting of
	// every pool member, all read at scrape time.
	reg := obs.NewRegistry()
	serve.RegisterMetrics(reg, srv)
	condor.RegisterDeploymentMetrics(reg, pool...)

	var handlerOpts []serve.HandlerOption
	var trace *obs.Trace
	if o.tracePath != "" {
		trace = obs.NewTrace()
		handlerOpts = append(handlerOpts, serve.WithRequestTracer(trace))
	}

	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(srv, input, o.reqTimeout, handlerOpts...))
	mux.Handle("/metricsz", reg.Handler())
	if o.pprofOn {
		// The profiling endpoints are registered explicitly (the server does
		// not use http.DefaultServeMux, so the net/http/pprof side-effect
		// import alone would expose nothing).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("pprof enabled on http://%s/debug/pprof/\n", o.addr)
	}
	swap.set(mux)
	fmt.Printf("serving %s on http://%s with %d backends (max batch %d, queue %d)\n",
		o.model, o.addr, len(pool), o.maxBatch, o.queueDepth)

	// Fleet membership: announce readiness to the router, and make the
	// departure explicit before draining so the ring stops routing here
	// without waiting for probe eviction.
	if o.fleetURL != "" {
		if err := fleetRegistration(o.fleetURL, "/register", o.advertise); err != nil {
			return fmt.Errorf("fleet registration: %w", err)
		}
		fmt.Printf("registered with fleet router %s as %s\n", o.fleetURL, o.advertise)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("\n%v: draining in-flight requests\n", s)
	}
	if o.fleetURL != "" {
		if err := fleetRegistration(o.fleetURL, "/deregister", o.advertise); err != nil {
			fmt.Printf("fleet deregistration failed (continuing drain): %v\n", err)
		} else {
			fmt.Printf("deregistered from fleet router %s\n", o.fleetURL)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Printf("drained: %d completed, %d rejected, %d expired, %d failed across %d batches\n",
		st.Completed, st.Rejected, st.Expired, st.Failed, st.Batches)
	if trace != nil {
		if err := writeTrace(trace, o.tracePath); err != nil {
			return fmt.Errorf("write request trace: %w", err)
		}
		fmt.Printf("request trace written to %s\n", o.tracePath)
	}
	return nil
}

// fleetRegistration POSTs this node's advertised URL to the router.
func fleetRegistration(router, path, advertise string) error {
	body, err := json.Marshal(struct {
		URL string `json:"url"`
	}{advertise})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(router+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s returned %s: %s", router+path, resp.Status, msg)
	}
	return nil
}

// writeTrace exports the per-request spans as a Chrome trace file.
func writeTrace(trace *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runProbe exercises a running server once: health, one inference, stats.
func runProbe(base string) error {
	client := &http.Client{Timeout: 10 * time.Second}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	var health serve.HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("healthz decode: %w", err)
	}
	if health.Status != "ok" || health.Input.Volume() == 0 {
		return fmt.Errorf("unhealthy server: %+v", health)
	}

	img := make([]float32, health.Input.Volume())
	for i := range img {
		img[i] = float32(i%7) / 7
	}
	body, err := json.Marshal(serve.InferRequest{Image: img})
	if err != nil {
		return err
	}
	resp, err = client.Post(base+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /infer: status %s", resp.Status)
	}
	var infer serve.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&infer); err != nil {
		return fmt.Errorf("infer decode: %w", err)
	}
	if len(infer.Output) == 0 {
		return fmt.Errorf("empty inference output")
	}
	fmt.Printf("inferred: argmax %d over %d classes, modeled kernel %.3f ms\n",
		infer.Argmax, len(infer.Output), infer.KernelMs)

	resp, err = client.Get(base + "/statsz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var stats serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return fmt.Errorf("statsz decode: %w", err)
	}
	if stats.Completed == 0 {
		return fmt.Errorf("statsz reports no completed requests after a successful inference")
	}
	fmt.Printf("stats: %d completed, %d batches, %d backends\n",
		stats.Completed, stats.Batches, len(stats.Backends))

	resp, err = client.Get(base + "/metricsz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metricsz: status %s", resp.Status)
	}
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("metricsz read: %w", err)
	}
	if !bytes.Contains(metrics.Bytes(), []byte("condor_serve_requests_total")) {
		return fmt.Errorf("metricsz exposition missing condor_serve_requests_total:\n%s", metrics.String())
	}
	fmt.Printf("metrics: %d bytes of Prometheus exposition\n", metrics.Len())
	return nil
}
