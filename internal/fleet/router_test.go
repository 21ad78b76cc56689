package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/obs"
	"condor/internal/serve"
)

// stubNode is a minimal condor-serve stand-in: /healthz reports an input
// shape, /readyz follows the down flag, /infer is scripted per test.
type stubNode struct {
	srv   *httptest.Server
	down  atomic.Bool
	infer func(w http.ResponseWriter, r *http.Request)
	hits  atomic.Int64
}

func newStubNode(t *testing.T, infer func(w http.ResponseWriter, r *http.Request)) *stubNode {
	t.Helper()
	n := &stubNode{infer: infer}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if n.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(serve.HealthResponse{
			Status: "ok", Input: serve.InputShape{Channels: 1, Height: 8, Width: 8}, Backends: 1,
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if n.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ready"}`))
	})
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		n.hits.Add(1)
		if n.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		n.infer(w, r)
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func okInfer(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte(`{"argmax":1}`))
}

func newTestRouter(t *testing.T, cfg RouterConfig, nodes ...*stubNode) *Router {
	t.Helper()
	if cfg.Membership.ProbeInterval == 0 {
		cfg.Membership.ProbeInterval = 20 * time.Millisecond
	}
	rt := NewRouter(cfg)
	for _, n := range nodes {
		if _, err := rt.Membership().Register(n.srv.URL); err != nil {
			t.Fatalf("Register(%s): %v", n.srv.URL, err)
		}
	}
	rt.Start()
	t.Cleanup(rt.Close)
	return rt
}

func postInfer(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/infer", strings.NewReader(`{"image":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /infer: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestRouterForwardsAndStampsHeaders(t *testing.T) {
	var gotRID atomic.Value
	node := newStubNode(t, func(w http.ResponseWriter, r *http.Request) {
		gotRID.Store(r.Header.Get(obs.RequestIDHeader))
		okInfer(w, r)
	})
	rt := newTestRouter(t, RouterConfig{}, node)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp := postInfer(t, front.URL, map[string]string{obs.RequestIDHeader: "rid-123"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(NodeHeader); got != node.srv.URL {
		t.Errorf("%s = %q, want %q", NodeHeader, got, node.srv.URL)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != "rid-123" {
		t.Errorf("request id echo = %q, want rid-123", got)
	}
	if got, _ := gotRID.Load().(string); got != "rid-123" {
		t.Errorf("node saw request id %q, want rid-123 (propagation broken)", got)
	}

	// Without a client-supplied id the router mints one.
	resp2 := postInfer(t, front.URL, nil)
	if resp2.Header.Get(obs.RequestIDHeader) == "" {
		t.Error("router did not mint a request id")
	}

	st := rt.Stats()
	if st.Classes["high"].Completed != 2 {
		t.Errorf("high completed = %d, want 2", st.Classes["high"].Completed)
	}
}

func TestRouterRegistrationEndpoints(t *testing.T) {
	node := newStubNode(t, okInfer)
	rt := newTestRouter(t, RouterConfig{})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Before any node joins, readiness is explicit about why.
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var re RouterError
	json.NewDecoder(resp.Body).Decode(&re)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || re.Code != CodeNoReadyNodes {
		t.Fatalf("empty-fleet /readyz = %d code %q, want 503 %q", resp.StatusCode, re.Code, CodeNoReadyNodes)
	}

	body, _ := json.Marshal(RegistrationRequest{URL: node.srv.URL})
	resp, err = http.Post(front.URL+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/register = %d, want 200", resp.StatusCode)
	}
	if rt.Membership().ReadyCount() != 1 {
		t.Fatalf("ReadyCount = %d after register", rt.Membership().ReadyCount())
	}

	resp, err = http.Post(front.URL+"/deregister", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rt.Membership().ReadyCount() != 0 {
		t.Fatalf("/deregister = %d, ReadyCount = %d", resp.StatusCode, rt.Membership().ReadyCount())
	}
}

func TestRouterFailoverToHealthyReplica(t *testing.T) {
	bad := newStubNode(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	good := newStubNode(t, okInfer)
	rt := newTestRouter(t, RouterConfig{
		ReplicationFactor: 2,
		Retries:           1,
		RetryBackoff:      time.Millisecond,
		Membership:        MembershipConfig{BreakerThreshold: 100}, // keep the breaker out of this test
	}, bad, good)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Twenty model keys, the last one chosen through the ring so that the
	// failing node is its primary (which node owns a key depends on the ports
	// the stubs happened to get); every request must still complete via the
	// healthy replica.
	ring := rt.Membership().ring
	var models []string
	for i := 0; len(models) < 20 && i < 10000; i++ {
		if m := fmt.Sprintf("m-%d", i); len(models) < 19 || ring.Lookup(m) == bad.srv.URL {
			models = append(models, m)
		}
	}
	if len(models) < 20 {
		t.Fatal("no model key among 10000 has the failing node as primary")
	}
	for i, m := range models {
		resp := postInfer(t, front.URL, map[string]string{ModelHeader: m})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via failover", i, resp.StatusCode)
		}
		if got := resp.Header.Get(NodeHeader); got != good.srv.URL {
			t.Fatalf("request %d served by %s, want %s", i, got, good.srv.URL)
		}
	}
	if bad.hits.Load() == 0 {
		t.Error("failing node never tried: hash spread did not exercise failover")
	}
	if rt.Stats().Retries == 0 {
		t.Error("retries counter is zero after forced failovers")
	}
}

// A node's 400 settles the request at the router: the image is unservable
// (a non-finite pixel on an int8 node, a wrong shape), so it is neither
// retried on the other replica nor held against the node's breaker.
func TestRouterPassesClientErrorThrough(t *testing.T) {
	reject := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"non-finite value cannot be quantized"}`, http.StatusBadRequest)
	}
	a, b := newStubNode(t, reject), newStubNode(t, reject)
	rt := newTestRouter(t, RouterConfig{ReplicationFactor: 2, Retries: 1, RetryBackoff: time.Millisecond,
		Membership: MembershipConfig{BreakerThreshold: 1}}, a, b)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	for i := 0; i < 3; i++ {
		if resp := postInfer(t, front.URL, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want the node's 400", i, resp.StatusCode)
		}
	}
	if hits := a.hits.Load() + b.hits.Load(); hits != 3 {
		t.Fatalf("%d node hits for 3 requests: a client error was retried", hits)
	}
	if st := rt.Stats(); st.Retries != 0 {
		t.Fatalf("retries = %d, want 0", st.Retries)
	}
}

// An /infer body larger than any image of the fleet's input shape could need
// is refused at the router with the node's own bound: 413 and the router's
// error envelope, and nothing is forwarded.
func TestRouterInferBodyCap(t *testing.T) {
	node := newStubNode(t, okInfer)
	rt := newTestRouter(t, RouterConfig{}, node)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	limit := serve.InputShape{Channels: 1, Height: 8, Width: 8}.MaxInferBytes()
	body := `{"image":[` + strings.Repeat("0,", int(limit)) + `0]}`
	resp, err := http.Post(front.URL+"/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var re RouterError
	if err := json.NewDecoder(resp.Body).Decode(&re); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || re.Code != CodeBodyTooLarge || re.Error == "" {
		t.Fatalf("oversize /infer = %d %+v, want 413 with code %q", resp.StatusCode, re, CodeBodyTooLarge)
	}
	if n := node.hits.Load(); n != 0 {
		t.Fatalf("oversize body forwarded to the node %d time(s)", n)
	}
	// A body under the cap still goes through.
	if resp := postInfer(t, front.URL, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("small /infer = %d, want 200", resp.StatusCode)
	}
}

// /register and /deregister carry one URL; a 1 MiB body is refused before it
// is buffered or decoded, and no node joins.
func TestRouterRegistrationBodyCap(t *testing.T) {
	rt := newTestRouter(t, RouterConfig{})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Leading whitespace is valid JSON, so the decoder must read past the
	// cap to reach the object; the URL points at a closed local port.
	body := strings.Repeat(" ", 1<<20) + `{"url":"http://127.0.0.1:1"}`
	for _, path := range []string{"/register", "/deregister"} {
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var re RouterError
		json.NewDecoder(resp.Body).Decode(&re) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || re.Code != CodeBodyTooLarge {
			t.Errorf("1 MiB %s body = %d %+v, want 413 with code %q", path, resp.StatusCode, re, CodeBodyTooLarge)
		}
	}
	if n := len(rt.Membership().Snapshot()); n != 0 {
		t.Fatalf("%d node(s) registered from an oversize body", n)
	}
}

func TestRouterBreakerRemovesFlappingNode(t *testing.T) {
	bad := newStubNode(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	good := newStubNode(t, okInfer)
	rt := newTestRouter(t, RouterConfig{
		ReplicationFactor: 2,
		Retries:           1,
		RetryBackoff:      time.Millisecond,
		Membership: MembershipConfig{
			BreakerThreshold: 2,
			BreakerCooldown:  time.Hour, // stays open for the whole test
		},
	}, bad, good)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i := 0; i < 30; i++ {
		resp := postInfer(t, front.URL, map[string]string{ModelHeader: fmt.Sprintf("m-%d", i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	hitsAtOpen := bad.hits.Load()
	if hitsAtOpen == 0 {
		t.Skip("hash spread never picked the failing node first")
	}
	for i := 0; i < 30; i++ {
		postInfer(t, front.URL, map[string]string{ModelHeader: fmt.Sprintf("m-%d", i)})
	}
	if got := bad.hits.Load(); got != hitsAtOpen {
		t.Errorf("open breaker still forwarded to failing node: hits %d -> %d", hitsAtOpen, got)
	}
	for _, n := range rt.Membership().Snapshot() {
		if n.URL == bad.srv.URL && n.Breaker != "open" {
			t.Errorf("failing node breaker = %s, want open", n.Breaker)
		}
	}
}

func TestRouterShedsLowPriority(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	slow := newStubNode(t, func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		okInfer(w, r)
	})
	rt := newTestRouter(t, RouterConfig{
		MaxInflight:         2,
		LowPriorityFraction: 0.5, // low budget = 1 slot
	}, slow)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	defer close(release)

	// Occupy the single low-priority slot with a high-priority request.
	go func() {
		req, _ := http.NewRequest(http.MethodPost, front.URL+"/infer", strings.NewReader(`{"image":[0]}`))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the node")
	}

	// Low priority now exceeds its budget and must be shed with the typed code.
	resp := postInfer(t, front.URL, map[string]string{PriorityHeader: "low"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("low-priority status = %d, want 503", resp.StatusCode)
	}
	var re RouterError
	json.NewDecoder(resp.Body).Decode(&re)
	if re.Code != CodeShedLowPriority {
		t.Errorf("shed code = %q, want %q", re.Code, CodeShedLowPriority)
	}
	if resp.Header.Get(ShedHeader) != "1" {
		t.Errorf("%s header missing on shed reply", ShedHeader)
	}
	if rt.Stats().Classes["low"].Shed != 1 {
		t.Errorf("low shed counter = %d, want 1", rt.Stats().Classes["low"].Shed)
	}
}

func TestRouterDeadlineAwareShed(t *testing.T) {
	node := newStubNode(t, okInfer)
	rt := newTestRouter(t, RouterConfig{}, node)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Teach the EWMA that the fleet is slow, then offer a low-priority
	// request whose deadline the fleet cannot meet.
	rt.observeLatency(250)
	resp := postInfer(t, front.URL, map[string]string{
		PriorityHeader: "low",
		DeadlineHeader: "50",
	})
	var re RouterError
	json.NewDecoder(resp.Body).Decode(&re)
	if resp.StatusCode != http.StatusServiceUnavailable || re.Code != CodeShedLowPriority {
		t.Fatalf("deadline shed = %d code %q, want 503 %q", resp.StatusCode, re.Code, CodeShedLowPriority)
	}

	// High priority with the same hopeless deadline is still admitted — the
	// SLO valve only sheds the sheddable class.
	resp = postInfer(t, front.URL, map[string]string{DeadlineHeader: "50"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("high-priority status = %d, want 200", resp.StatusCode)
	}
}

func TestRouterSaturationRejects(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	slow := newStubNode(t, func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		okInfer(w, r)
	})
	rt := newTestRouter(t, RouterConfig{MaxInflight: 1}, slow)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	defer close(release)

	go func() {
		req, _ := http.NewRequest(http.MethodPost, front.URL+"/infer", strings.NewReader(`{"image":[0]}`))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the node")
	}

	resp := postInfer(t, front.URL, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	var re RouterError
	json.NewDecoder(resp.Body).Decode(&re)
	if re.Code != CodeSaturated {
		t.Errorf("saturated code = %q, want %q", re.Code, CodeSaturated)
	}
}

func TestMembershipEvictsAndReadmits(t *testing.T) {
	node := newStubNode(t, okInfer)
	rt := newTestRouter(t, RouterConfig{
		Membership: MembershipConfig{
			ProbeInterval: 10 * time.Millisecond,
			FailThreshold: 2,
		},
	}, node)

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", desc)
	}

	node.down.Store(true)
	waitFor("eviction", func() bool { return rt.Membership().ReadyCount() == 0 })
	snap := rt.Membership().Snapshot()
	if len(snap) != 1 || snap[0].State != "down" {
		t.Fatalf("snapshot after eviction = %+v", snap)
	}

	node.down.Store(false)
	waitFor("re-admission", func() bool { return rt.Membership().ReadyCount() == 1 })
}

func TestRouterStatsAndMetricsSurface(t *testing.T) {
	node := newStubNode(t, okInfer)
	rt := newTestRouter(t, RouterConfig{}, node)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	postInfer(t, front.URL, nil)

	resp, err := http.Get(front.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /statsz: %v", err)
	}
	if st.MaxInflight != 256 || len(st.Nodes) != 1 {
		t.Errorf("statsz = max %d nodes %d, want 256 and 1", st.MaxInflight, len(st.Nodes))
	}

	reg := obs.NewRegistry()
	RegisterMetrics(reg, rt)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"condor_fleet_requests_total", "condor_fleet_nodes", "condor_fleet_inflight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %s", want)
		}
	}
}
