package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"condor/internal/obs"
	"condor/internal/serve"
)

// Request headers the fleet tier understands.
const (
	// PriorityHeader selects the admission class: "low" is sheddable bulk
	// traffic, anything else (or absence) is "high" interactive traffic.
	PriorityHeader = "X-Condor-Priority"
	// DeadlineHeader carries the request's end-to-end deadline in
	// milliseconds; the router bounds forwarding (and sheds low-priority
	// work it cannot hope to finish in time) against it.
	DeadlineHeader = "X-Condor-Deadline-Ms"
	// ModelHeader overrides the consistent-hash key (defaults to the
	// router's configured model).
	ModelHeader = "X-Condor-Model"
	// NodeHeader is set on router replies: the node that served the request.
	NodeHeader = "X-Condor-Node"
	// ShedHeader is set to "1" on replies that were shed by admission
	// control rather than failed by the fleet.
	ShedHeader = "X-Condor-Shed"
)

// Router error codes (the "code" field of error replies). Clients — the
// load generator, the stress gate — classify outcomes on these, so a shed
// request is typed, never a generic failure.
const (
	CodeShedLowPriority = "shed_low_priority"
	CodeSaturated       = "saturated"
	CodeNoReadyNodes    = "no_ready_nodes"
	CodeNoReplica       = "no_replica_available"
	CodeBodyTooLarge    = "body_too_large"
)

// RouterError is the JSON body of a router-originated error reply.
type RouterError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// RouterConfig sizes the fleet front door.
type RouterConfig struct {
	// Model is the default consistent-hash key for requests without an
	// X-Condor-Model header (default "default").
	Model string
	// ReplicationFactor is how many distinct ring nodes form a model's
	// replica set: the primary plus failover targets (default 3).
	ReplicationFactor int
	// MaxInflight bounds concurrently forwarded requests; beyond it even
	// high-priority traffic is rejected with 429 (default 256).
	MaxInflight int
	// LowPriorityFraction is the share of MaxInflight low-priority traffic
	// may occupy; past it low requests are shed with CodeShedLowPriority
	// while high-priority requests still fit — the SLO-protecting valve
	// (default 0.5).
	LowPriorityFraction float64
	// Retries is how many additional replicas an attempt fails over to on
	// transient errors (default 2).
	Retries int
	// RetryBackoff is the initial inter-attempt delay, doubling per retry
	// (default 5ms).
	RetryBackoff time.Duration
	// ForwardTimeout bounds one forwarded attempt (default 10s).
	ForwardTimeout time.Duration
	// Membership configures node probing and circuit breakers.
	Membership MembershipConfig
	// Logf receives router lifecycle messages; nil discards them.
	Logf func(format string, a ...any)
}

func (c *RouterConfig) applyDefaults() {
	if c.Model == "" {
		c.Model = "default"
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 3
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.LowPriorityFraction <= 0 || c.LowPriorityFraction > 1 {
		c.LowPriorityFraction = 0.5
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	c.Membership.applyDefaults()
}

// classStats is one priority class's atomic accounting.
type classStats struct {
	admitted  atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
	rejected  atomic.Int64 // 429 saturated
	failed    atomic.Int64 // no replica answered
}

// ClassSnapshot is the JSON form of one class's counters.
type ClassSnapshot struct {
	Admitted  uint64 `json:"admitted"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Failed    uint64 `json:"failed"`
}

func (c *classStats) snapshot() ClassSnapshot {
	return ClassSnapshot{
		Admitted:  uint64(c.admitted.Load()),
		Completed: uint64(c.completed.Load()),
		Shed:      uint64(c.shed.Load()),
		Rejected:  uint64(c.rejected.Load()),
		Failed:    uint64(c.failed.Load()),
	}
}

// RouterStats is the /statsz reply.
type RouterStats struct {
	Inflight    int64                    `json:"inflight"`
	MaxInflight int                      `json:"max_inflight"`
	LowBudget   int                      `json:"low_priority_budget"`
	EWMAMs      float64                  `json:"latency_ewma_ms"`
	Retries     uint64                   `json:"retries"`
	Classes     map[string]ClassSnapshot `json:"classes"`
	Nodes       []NodeInfo               `json:"nodes"`
	Autoscaler  *AutoscalerStats         `json:"autoscaler,omitempty"`
}

// Router is the fleet's HTTP front door: consistent-hash routing by model
// across the health-checked membership, per-node circuit breaking,
// retry-with-backoff across the replica set, and SLO-aware priority
// admission. Every accepted request receives a definitive reply — success,
// a typed shed/reject, or an explicit failover-exhausted error; nothing is
// silently dropped.
type Router struct {
	cfg     RouterConfig
	members *Membership
	client  *http.Client

	inflight atomic.Int64
	ewmaBits atomic.Uint64 // float64 bits of the completed-latency EWMA (ms)
	retries  atomic.Int64
	high     classStats
	low      classStats

	autoscaler *Autoscaler // optional, attached before Start
}

// NewRouter builds a router over an empty membership; register nodes via
// the /register endpoint or Membership().Register, then Start it.
func NewRouter(cfg RouterConfig) *Router {
	cfg.applyDefaults()
	return &Router{
		cfg:     cfg,
		members: NewMembership(cfg.Membership),
		client:  &http.Client{Timeout: cfg.ForwardTimeout},
	}
}

// Membership exposes the node registry (registration from the host binary,
// direct control from tests).
func (rt *Router) Membership() *Membership { return rt.members }

// AttachAutoscaler couples an autoscaler so /statsz and /metricsz expose
// its state next to the router's. Call before Start.
func (rt *Router) AttachAutoscaler(a *Autoscaler) { rt.autoscaler = a }

// Start launches the membership probe loop (and the autoscaler, when one is
// attached).
func (rt *Router) Start() {
	rt.members.Start()
	if rt.autoscaler != nil {
		rt.autoscaler.Start()
	}
}

// Close stops the probe loop and autoscaler.
func (rt *Router) Close() {
	if rt.autoscaler != nil {
		rt.autoscaler.Stop()
	}
	rt.members.Close()
}

// Stats snapshots the router.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		Inflight:    rt.inflight.Load(),
		MaxInflight: rt.cfg.MaxInflight,
		LowBudget:   rt.lowBudget(),
		EWMAMs:      math.Float64frombits(rt.ewmaBits.Load()),
		Retries:     uint64(rt.retries.Load()),
		Classes: map[string]ClassSnapshot{
			"high": rt.high.snapshot(),
			"low":  rt.low.snapshot(),
		},
		Nodes: rt.members.Snapshot(),
	}
	if rt.autoscaler != nil {
		s := rt.autoscaler.Stats()
		st.Autoscaler = &s
	}
	return st
}

func (rt *Router) lowBudget() int {
	return int(float64(rt.cfg.MaxInflight) * rt.cfg.LowPriorityFraction)
}

// Handler returns the router's HTTP surface:
//
//	POST /infer       forwarded single-image inference
//	POST /register    {"url":"http://node"} joins the fleet
//	POST /deregister  {"url":"http://node"} leaves the fleet
//	GET  /nodes       membership snapshot
//	GET  /healthz     router liveness + fleet input shape
//	GET  /readyz      200 once ≥1 node is routable
//	GET  /statsz      RouterStats
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", rt.handleInfer)
	mux.HandleFunc("/register", rt.handleRegistration(true))
	mux.HandleFunc("/deregister", rt.handleRegistration(false))
	mux.HandleFunc("/nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Nodes []NodeInfo `json:"nodes"`
		}{rt.members.Snapshot()})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		input, ok := rt.members.Input()
		status, code := "ok", http.StatusOK
		if !ok {
			status, code = "no-nodes", http.StatusServiceUnavailable
		}
		writeJSON(w, code, serve.HealthResponse{
			Status: status, Input: input, Backends: rt.members.ReadyCount(),
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if rt.members.ReadyCount() == 0 {
			writeJSON(w, http.StatusServiceUnavailable, RouterError{Error: "no ready nodes", Code: CodeNoReadyNodes})
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
			Nodes  int    `json:"nodes"`
		}{"ready", rt.members.ReadyCount()})
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.Stats())
	})
	return mux
}

// RegistrationRequest is the body of POST /register and /deregister.
type RegistrationRequest struct {
	URL string `json:"url"`
}

// maxRegistrationBytes caps a /register or /deregister body: its one field
// is a node URL.
const maxRegistrationBytes = 64 << 10

func isTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

func (rt *Router) handleRegistration(join bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, RouterError{Error: "POST required"})
			return
		}
		var req RegistrationRequest
		err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRegistrationBytes)).Decode(&req)
		if isTooLarge(err) {
			writeJSON(w, http.StatusRequestEntityTooLarge, RouterError{
				Error: fmt.Sprintf("body exceeds %d bytes", maxRegistrationBytes), Code: CodeBodyTooLarge,
			})
			return
		}
		if err != nil || req.URL == "" {
			writeJSON(w, http.StatusBadRequest, RouterError{Error: "body must be {\"url\":\"http://node\"}"})
			return
		}
		if join {
			input, err := rt.members.Register(req.URL)
			if err != nil {
				writeJSON(w, http.StatusBadGateway, RouterError{Error: err.Error()})
				return
			}
			writeJSON(w, http.StatusOK, struct {
				Status string           `json:"status"`
				Input  serve.InputShape `json:"input"`
				Nodes  int              `json:"nodes"`
			}{"registered", input, rt.members.ReadyCount()})
			return
		}
		if err := rt.members.Deregister(req.URL); err != nil {
			writeJSON(w, http.StatusNotFound, RouterError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
			Nodes  int    `json:"nodes"`
		}{"deregistered", rt.members.ReadyCount()})
	}
}

// handleInfer is the forwarding path: admission → replica set → failover.
func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, RouterError{Error: "POST required"})
		return
	}
	rid := r.Header.Get(obs.RequestIDHeader)
	if rid == "" {
		rid = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, rid)

	class := &rt.high
	className := "high"
	if r.Header.Get(PriorityHeader) == "low" {
		class = &rt.low
		className = "low"
	}
	deadlineMs, _ := strconv.ParseFloat(r.Header.Get(DeadlineHeader), 64)

	// Admission. The inflight count is taken optimistically and released on
	// every exit path; budgets are checked against the post-increment value
	// so MaxInflight is a true bound.
	in := rt.inflight.Add(1)
	defer rt.inflight.Add(-1)
	if in > int64(rt.cfg.MaxInflight) {
		class.rejected.Add(1)
		writeJSON(w, http.StatusTooManyRequests, RouterError{
			Error: fmt.Sprintf("router saturated: %d requests in flight", in),
			Code:  CodeSaturated,
		})
		return
	}
	if className == "low" {
		if in > int64(rt.lowBudget()) {
			rt.shed(w, class, "low-priority budget exhausted while the fleet is saturated")
			return
		}
		// Deadline-aware shed: when the fleet's recent latency already
		// exceeds this request's deadline, forwarding it would only displace
		// work that can still meet its SLO.
		if ewma := math.Float64frombits(rt.ewmaBits.Load()); deadlineMs > 0 && ewma > deadlineMs {
			rt.shed(w, class, fmt.Sprintf("fleet latency %.1fms exceeds request deadline %.0fms", ewma, deadlineMs))
			return
		}
	}
	class.admitted.Add(1)

	model := r.Header.Get(ModelHeader)
	if model == "" {
		model = rt.cfg.Model
	}
	candidates := rt.members.Candidates(model, rt.cfg.ReplicationFactor)
	if len(candidates) == 0 {
		class.failed.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, RouterError{
			Error: "no ready nodes for model " + model, Code: CodeNoReadyNodes,
		})
		return
	}
	// Within the replica set, prefer the least-loaded node; the sort is
	// stable so equal loads keep ring (affinity) order.
	sort.SliceStable(candidates, func(i, j int) bool {
		return candidates[i].inflight.Load() < candidates[j].inflight.Load()
	})

	// The nodes cap the body at what one image of their input shape needs;
	// buffering more here would only hold a request every replica refuses.
	limit := candidates[0].inputShape().MaxInferBytes()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		class.completed.Add(1) // answered, just not forwarded
		if isTooLarge(err) {
			writeJSON(w, http.StatusRequestEntityTooLarge, RouterError{
				Error: fmt.Sprintf("body exceeds %d bytes, the nodes' cap for one image", limit), Code: CodeBodyTooLarge,
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, RouterError{Error: "read body: " + err.Error()})
		return
	}

	ctx := r.Context()
	var cancel context.CancelFunc
	if deadlineMs > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMs*float64(time.Millisecond)))
		defer cancel()
	}

	start := time.Now()
	attempts := rt.cfg.Retries + 1
	if attempts > len(candidates) {
		attempts = len(candidates)
	}
	backoff := rt.cfg.RetryBackoff
	var lastErr string
	tried := 0
	for _, node := range candidates {
		if tried >= attempts {
			break
		}
		if !node.breaker.Allow() {
			continue
		}
		if tried > 0 {
			rt.retries.Add(1)
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				class.failed.Add(1)
				writeJSON(w, http.StatusGatewayTimeout, RouterError{
					Error: "deadline expired during failover: " + lastErr, Code: CodeNoReplica,
				})
				return
			}
			backoff *= 2
		}
		tried++
		status, respBody, err := rt.forwardOnce(ctx, node, r, body, rid)
		switch {
		case err != nil:
			node.breaker.Failure()
			node.failures.Add(1)
			lastErr = fmt.Sprintf("%s: %v", node.url, err)
			continue
		case status >= 500:
			node.breaker.Failure()
			node.failures.Add(1)
			lastErr = fmt.Sprintf("%s: status %d", node.url, status)
			continue
		case status == http.StatusTooManyRequests:
			// Node-level backpressure: the node is healthy but full, so the
			// breaker stays closed; try the next replica.
			node.failures.Add(1)
			lastErr = fmt.Sprintf("%s: node backpressure (429)", node.url)
			continue
		}
		// 2xx and client-errors both settle the request here: a 400 from
		// the node means the request itself is malformed and no replica
		// would answer differently.
		node.breaker.Success()
		node.forwarded.Add(1)
		if status < 300 {
			rt.observeLatency(float64(time.Since(start)) / float64(time.Millisecond))
		}
		class.completed.Add(1)
		w.Header().Set(NodeHeader, node.url)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(respBody) //nolint:errcheck // client went away
		return
	}
	class.failed.Add(1)
	if lastErr == "" {
		lastErr = "every replica's circuit breaker is open"
	}
	writeJSON(w, http.StatusBadGateway, RouterError{
		Error: fmt.Sprintf("no replica answered after %d attempt(s): %s", tried, lastErr),
		Code:  CodeNoReplica,
	})
}

func (rt *Router) shed(w http.ResponseWriter, class *classStats, reason string) {
	class.shed.Add(1)
	w.Header().Set(ShedHeader, "1")
	writeJSON(w, http.StatusServiceUnavailable, RouterError{
		Error: "shed: " + reason, Code: CodeShedLowPriority,
	})
}

// forwardOnce sends the buffered request to one node and returns its status
// and body. The node's inflight gauge covers exactly the round trip.
func (rt *Router) forwardOnce(ctx context.Context, node *memberNode, r *http.Request, body []byte, rid string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.url+"/infer", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, rid)
	if p := r.Header.Get(PriorityHeader); p != "" {
		req.Header.Set(PriorityHeader, p)
	}
	if d := r.Header.Get(DeadlineHeader); d != "" {
		req.Header.Set(DeadlineHeader, d)
	}
	node.inflight.Add(1)
	defer node.inflight.Add(-1)
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, respBody, nil
}

// observeLatency folds one completed request's total milliseconds into the
// admission EWMA (α = 0.2).
func (rt *Router) observeLatency(ms float64) {
	const alpha = 0.2
	for {
		old := rt.ewmaBits.Load()
		prev := math.Float64frombits(old)
		next := ms
		if prev != 0 {
			next = alpha*ms + (1-alpha)*prev
		}
		if rt.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}
