package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"condor"
	"condor/internal/fleet"
	"condor/internal/models"
	"condor/internal/obs"
	"condor/internal/serve"
	"condor/internal/tensor"
)

const (
	// servingCUs is the compute units per node; each is a backend of the
	// node's serving pool.
	servingCUs = 2
	// servingImages is how many distinct USPS images the requests cycle
	// through.
	servingImages = 64
	// requestTimeout bounds one request at the client and at the node; an op
	// that hits it is classed late.
	requestTimeout = 5 * time.Second
	// opIDPrefix starts the X-Condor-Request-ID of benchmark requests, so the
	// span middleware can tell them from probes and registration traffic.
	opIDPrefix = "benchmark-op-"
)

// servingNode is one in-process condor-serve node: TC1 on ku115 with two
// compute units as backends, serve.Config defaults, behind serve.NewHandler
// on a loopback listener.
type servingNode struct {
	srv      *serve.Server
	http     *httpNode
	backends int
}

func newServingNode(b *condor.Build, rec *recorder, parent string) (*servingNode, error) {
	dep, err := condor.New().DeployLocalCUs(b, servingCUs)
	if err != nil {
		return nil, err
	}
	var pool []serve.Backend
	for _, cu := range dep.CUBackends() {
		if rec == nil {
			pool = append(pool, cu)
		} else {
			pool = append(pool, &spanBackend{Backend: cu, rec: rec})
		}
	}
	srv, err := serve.New(serve.Config{Backends: pool})
	if err != nil {
		return nil, err
	}
	in := b.Spec.Input
	h := serve.NewHandler(srv, serve.InputShape{Channels: in.Channels, Height: in.Height, Width: in.Width}, requestTimeout)
	node, err := serveHTTP(spanMiddleware(rec, "serve.handler", parent, h))
	if err != nil {
		return nil, err
	}
	return &servingNode{srv: srv, http: node, backends: len(pool)}, nil
}

func (n *servingNode) close() error {
	err := n.http.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := n.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// spanBackend records one span per batch around a serve.Backend.
type spanBackend struct {
	serve.Backend
	rec *recorder
}

func (b *spanBackend) Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	t0 := time.Now()
	outs, ms, err := b.Backend.Infer(batch)
	b.rec.add("backend.infer", "", noOp, t0, time.Now(), len(batch))
	return outs, ms, err
}

// spanMiddleware records one span per benchmark request around an
// http.Handler. With tracing off it returns the handler itself.
func spanMiddleware(rec *recorder, name, parent string, next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := strings.CutPrefix(r.Header.Get(obs.RequestIDHeader), opIDPrefix)
		op, err := strconv.Atoi(id)
		if !ok || err != nil {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		rec.add(name, parent, op, t0, time.Now(), 0)
	})
}

// serving sends POST /infer (one USPS image, JSON) either straight to one
// node or through the fleet router to two.
type serving struct {
	rec       *recorder
	b         *condor.Build
	nodes     []*servingNode
	router    *fleet.Router
	routerSrv *httpNode
	target    string
	keys      []string // X-Condor-Model keys the requests alternate over
	client    *http.Client
	bodies    [][]byte
	want      []*tensor.Tensor
	readyDur  time.Duration
	refMs     float64

	serve0 []serve.Stats
	fleet0 fleet.RouterStats
}

// newServing returns the constructor of a serving workload: direct to one
// node, or through fleet.NewRouter to two.
func newServing(throughFleet bool) func(context.Context, int64, *recorder) (instance, error) {
	return func(ctx context.Context, seed int64, rec *recorder) (instance, error) {
		t0 := time.Now()
		ir, _, err := models.TC1()
		if err != nil {
			return nil, err
		}
		ws, err := models.RandomWeights(ir, seed)
		if err != nil {
			return nil, err
		}
		b, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws, Board: fabricBoard, ComputeUnits: servingCUs})
		if err != nil {
			return nil, err
		}
		imgs := models.USPSImages(servingImages, seed)
		var bodies [][]byte
		for _, img := range imgs {
			body, err := json.Marshal(serve.InferRequest{Image: img.Data()})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
		}
		// The ring places nodes by hashing their URLs, and for some pairs of
		// loopback ports one node owns the whole key space, so no two keys
		// can be found on different nodes. New listeners get new ports.
		var s *serving
		for attempt := 0; ; attempt++ {
			s, err = deployServing(ctx, b, bodies, seed, rec, throughFleet)
			if err == nil {
				break
			}
			if !errors.Is(err, errOneNode) || attempt == 4 {
				return nil, err
			}
		}
		s.readyDur = time.Since(t0)

		net, err := b.IR.BuildNN(b.Weights)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		for _, img := range imgs {
			out, err := net.Predict(img)
			if err != nil {
				return nil, err
			}
			s.want = append(s.want, out)
		}
		s.refMs = millis(time.Since(t1)) / servingImages
		return s, nil
	}
}

// deployServing deploys the nodes (and, through the fleet, the router),
// registers them and picks the model keys. On an error nothing is left
// running.
func deployServing(ctx context.Context, b *condor.Build, bodies [][]byte, seed int64, rec *recorder, throughFleet bool) (_ *serving, err error) {
	s := &serving{rec: rec, b: b, bodies: bodies, client: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}}
	defer func() {
		if err != nil {
			s.close() //nolint:errcheck // the set-up error is the one to report
		}
	}()
	nodes, parent := 1, "client.op"
	if throughFleet {
		nodes, parent = 2, "fleet.router"
	}
	for i := 0; i < nodes; i++ {
		n, err := newServingNode(b, rec, parent)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	s.target = s.nodes[0].http.url
	if !throughFleet {
		return s, nil
	}
	s.router = fleet.NewRouter(fleet.RouterConfig{})
	s.router.Start()
	if s.routerSrv, err = serveHTTP(spanMiddleware(rec, "fleet.router", "client.op", s.router.Handler())); err != nil {
		return nil, err
	}
	s.target = s.routerSrv.url
	for _, n := range s.nodes {
		if _, err := s.router.Membership().Register(n.http.url); err != nil {
			return nil, err
		}
	}
	if err := s.pickKeys(ctx, seed); err != nil {
		return nil, err
	}
	return s, nil
}

// pickKeys probes model keys through the router until two land on different
// nodes, so the workload spreads over both whatever the ring's balance is.
// The keys are random hex words: the ring's hash clusters names that differ
// only in a suffix, so sequential names would all land on one node.
func (s *serving) pickKeys(ctx context.Context, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	first := ""
	for k := 0; k < 64; k++ {
		key := fmt.Sprintf("%016x", rng.Uint64())
		node, _, err := s.post(ctx, "", key, s.bodies[0])
		if err != nil {
			return fmt.Errorf("probing model key %s: %w", key, err)
		}
		switch {
		case len(s.keys) == 0:
			s.keys, first = []string{key}, node
		case node != first:
			s.keys = append(s.keys, key)
			return nil
		}
	}
	return errOneNode
}

// errOneNode reports a ring on which one node owns (nearly) every key.
var errOneNode = errors.New("64 model keys all routed to one node")

// errRefused marks a typed refusal: node backpressure or a router shed.
var errRefused = errors.New("refused")

// post sends one /infer request and returns the serving node and the reply.
func (s *serving) post(ctx context.Context, requestID, model string, body []byte) (string, *serve.InferResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.target+"/infer", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set(obs.RequestIDHeader, requestID)
	}
	if model != "" {
		req.Header.Set(fleet.ModelHeader, model)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests, resp.Header.Get(fleet.ShedHeader) != "":
		return "", nil, errRefused
	case resp.StatusCode != http.StatusOK:
		return "", nil, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var reply serve.InferResponse
	if err := json.Unmarshal(data, &reply); err != nil {
		return "", nil, err
	}
	return resp.Header.Get(fleet.NodeHeader), &reply, nil
}

func (s *serving) ready() time.Duration { return s.readyDur }
func (s *serving) built() *condor.Build { return s.b }

func (s *serving) windowStart() {
	s.serve0 = s.serve0[:0]
	for _, n := range s.nodes {
		s.serve0 = append(s.serve0, n.srv.Stats())
	}
	if s.router != nil {
		s.fleet0 = s.router.Stats()
	}
}

func (s *serving) op(ctx context.Context, i int) outcome {
	k := i % len(s.bodies)
	model := ""
	if len(s.keys) > 0 {
		model = s.keys[i%len(s.keys)]
	}
	t0 := time.Now()
	_, reply, err := s.post(ctx, opIDPrefix+strconv.Itoa(i), model, s.bodies[k])
	s.rec.add("client.op", "", i, t0, time.Now(), 0)
	var timeout interface{ Timeout() bool }
	switch {
	case errors.Is(err, errRefused):
		return opRefused
	case errors.As(err, &timeout) && timeout.Timeout():
		return opLate
	case err != nil:
		return opError
	}
	want := s.want[k]
	if len(reply.Output) != want.Len() {
		return opWrong
	}
	got := tensor.FromSlice(reply.Output, want.Shape()...)
	if reply.Argmax != got.ArgMax() || !checkOutput(got, want, condor.DefaultCosimTolerance) {
		return opWrong
	}
	return opOK
}

func (s *serving) layers(win *window, m metricSet) error {
	client, router, handler, batches := win.spans["client.op"], win.spans["fleet.router"], win.spans["serve.handler"], win.spans["backend.infer"]
	m.set(perLayer, "client.sent", float64(len(win.recs)), 0)
	var late []float64
	for _, r := range win.recs {
		late = append(late, millis(r.lateness()))
	}
	lateP95, lateMax := 0.0, 0.0
	if len(late) > 0 {
		sort.Float64s(late)
		lateP95, lateMax = percentile(late, 95), late[len(late)-1]
	}
	m.set(perLayer, "client.late_ms_mean", mean(late), len(late))
	m.set(perLayer, "client.late_ms_p95", lateP95, len(late))
	m.set(perLayer, "client.late_ms_max", lateMax, len(late))
	m.set(perLayer, "client.http_self_ms", client.selfMeanMs(), client.Count)
	if n := len(win.latMs); samplesBeyond(n, 99) >= 10 {
		m.set(perLayer, "client.op_ms_p99", percentile(win.latMs, 99), n)
	}
	m.set(perLayer, "fleet.router_self_ms", router.selfMeanMs(), router.Count)
	m.set(perLayer, "serve.handler_ms", handler.meanMs(), handler.Count)

	// Every request of a batch waits for the whole batch, so the backend
	// time one request sees is its batch's span.
	reqMs := 0.0
	if batches.N > 0 {
		reqMs = millis(batches.TotalByN) / float64(batches.N)
	}
	m.set(perLayer, "backend.infer_ms", batches.meanMs(), batches.Count)
	m.set(perLayer, "backend.req_ms", reqMs, batches.N)
	backends := 0
	for _, n := range s.nodes {
		backends += n.backends
	}
	m.set(perLayer, "backend.busy_share", batches.Total.Seconds()/(win.elapsed.Seconds()*float64(backends)), batches.Count)
	waitSelf := handler.meanMs() - reqMs
	m.set(perLayer, "serve.wait_self_ms", waitSelf, handler.Count)

	// The budget identity: the layers' self times add up to what the caller
	// saw once the request was on the wire. The self times telescope, so a
	// lost span would only move time to its parent and the sum would still
	// hold; what a lost or doubled span does break is the span counts. When
	// every op succeeded, each op has one client span and one router span,
	// one node-handler span (one more per router retry) and one place in a
	// backend batch.
	if ops := len(win.recs); win.failed == 0 {
		retries := 0
		if s.router != nil {
			retries = int(s.router.Stats().Retries - s.fleet0.Retries)
		}
		switch {
		case client.Count != ops,
			s.router != nil && router.Count != ops,
			handler.Count < ops || handler.Count > ops+retries,
			batches.N != handler.Count:
			return fmt.Errorf("budget identity failed: %d ops left %d client, %d router and %d node-handler spans and %d requests in backend batches (%d router retries)",
				ops, client.Count, router.Count, handler.Count, batches.N, retries)
		}
	}
	budget := client.selfMeanMs() + router.selfMeanMs() + waitSelf + reqMs
	onWire := win.opMeanMs - win.lateMeanMs
	if budget < 0.95*onWire || budget > 1.05*onWire {
		return fmt.Errorf("budget identity failed: client %.3f + router %.3f + serve wait %.3f + backend %.3f = %.3f ms, op mean − lateness = %.3f ms",
			client.selfMeanMs(), router.selfMeanMs(), waitSelf, reqMs, budget, onWire)
	}

	var batchCount, images, rejected, expired uint64
	var p50 []float64
	for i, n := range s.nodes {
		now, was := n.srv.Stats(), s.serve0[i]
		batchCount += now.Batches - was.Batches
		for size, c := range now.BatchSizeHist {
			images += uint64(size) * (c - was.BatchSizeHist[size])
		}
		rejected += now.Rejected - was.Rejected
		expired += now.Expired - was.Expired
		p50 = append(p50, now.TotalMsP50)
	}
	m.set(perLayer, "serve.admit_to_reply_ms_p50", mean(p50), 0)
	if batchCount > 0 {
		m.set(perLayer, "serve.batch_size_mean", float64(images)/float64(batchCount), int(batchCount))
	}
	m.set(perLayer, "serve.batches", float64(batchCount), 0)
	m.set(perLayer, "serve.rejected", float64(rejected), 0)
	m.set(perLayer, "serve.expired", float64(expired), 0)
	m.set(perLayer, "nn.ref_ms_per_img", s.refMs, servingImages)
	m.set(perLayer, "bitstream.xclbin_bytes", float64(len(s.b.Xclbin)), 0)
	setUtilization(m, s.b)

	if s.router != nil {
		now, was := s.router.Stats(), s.fleet0
		m.set(perLayer, "fleet.retries", float64(now.Retries-was.Retries), 0)
		var shed, refused uint64
		for class, c := range now.Classes {
			shed += c.Shed - was.Classes[class].Shed
			refused += c.Rejected - was.Classes[class].Rejected
		}
		m.set(perLayer, "fleet.shed", float64(shed), 0)
		m.set(perLayer, "fleet.rejected", float64(refused), 0)
		forwardedBefore := map[string]uint64{}
		for _, n := range was.Nodes {
			forwardedBefore[n.URL] = n.Forwarded
		}
		var total, most uint64
		for _, n := range now.Nodes {
			d := n.Forwarded - forwardedBefore[n.URL]
			total += d
			if d > most {
				most = d
			}
		}
		if total > 0 {
			m.set(perLayer, "fleet.node_share_max", float64(most)/float64(total), int(total))
		}
	}
	return nil
}

func (s *serving) close() error {
	s.client.CloseIdleConnections()
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if s.routerSrv != nil {
		keep(s.routerSrv.stop())
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, n := range s.nodes {
		keep(n.close())
	}
	return first
}
