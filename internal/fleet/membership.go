package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"condor/internal/serve"
)

// NodeState is a member's routability.
type NodeState int

const (
	// NodeReady nodes are in the hash ring and receive traffic.
	NodeReady NodeState = iota
	// NodeDown nodes failed FailThreshold consecutive readiness probes:
	// they are out of the ring but stay on the probe list, so a recovered
	// node is re-admitted automatically.
	NodeDown
)

func (s NodeState) String() string {
	if s == NodeReady {
		return "ready"
	}
	return "down"
}

// NodeInfo is the JSON snapshot of one member (GET /nodes).
type NodeInfo struct {
	URL           string           `json:"url"`
	State         string           `json:"state"`
	Breaker       string           `json:"breaker"`
	Inflight      int64            `json:"inflight"`
	Forwarded     uint64           `json:"forwarded"`
	ForwardErrors uint64           `json:"forward_errors"`
	ProbeFailures int              `json:"probe_failures"`
	Input         serve.InputShape `json:"input"`
}

// memberNode is the router's live view of one condor-serve node.
type memberNode struct {
	url     string
	breaker *Breaker

	inflight  atomic.Int64 // requests currently forwarded to this node
	forwarded atomic.Int64 // attempts answered 2xx
	failures  atomic.Int64 // attempts that failed (transport, 5xx, 429)

	mu         sync.Mutex
	state      NodeState
	probeFails int
	input      serve.InputShape
}

// inputShape is the image geometry the node reported at registration.
func (n *memberNode) inputShape() serve.InputShape {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.input
}

func (n *memberNode) snapshot() NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeInfo{
		URL:           n.url,
		State:         n.state.String(),
		Breaker:       n.breaker.State().String(),
		Inflight:      n.inflight.Load(),
		Forwarded:     uint64(n.forwarded.Load()),
		ForwardErrors: uint64(n.failures.Load()),
		ProbeFailures: n.probeFails,
		Input:         n.input,
	}
}

// MembershipConfig sizes the health-checked member registry.
type MembershipConfig struct {
	// ProbeInterval is the /readyz polling period (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 2s).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive probe failures before eviction
	// (default 3).
	FailThreshold int
	// BreakerThreshold / BreakerCooldown configure each node's circuit
	// breaker (defaults 5 failures, 1s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Vnodes is the ring's virtual-node count per member (default 64).
	Vnodes int
	// Logf receives membership transitions; nil discards them.
	Logf func(format string, a ...any)
}

func (c *MembershipConfig) applyDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Membership is the registry of serve nodes behind the router: nodes join
// via Register (the /register endpoint), leave via Deregister, and a probe
// loop polls every node's /readyz — FailThreshold consecutive failures
// evict a node from the hash ring, and a later successful probe re-admits
// it. Eviction and re-admission only touch the evicted node's vnodes, so
// the rest of the key space keeps its owners (bounded key movement).
type Membership struct {
	cfg    MembershipConfig
	ring   *Ring
	client *http.Client

	mu    sync.Mutex
	nodes map[string]*memberNode

	done chan struct{}
	wg   sync.WaitGroup
}

// NewMembership creates an empty registry. Call Start to begin probing and
// Close to stop.
func NewMembership(cfg MembershipConfig) *Membership {
	cfg.applyDefaults()
	return &Membership{
		cfg:    cfg,
		ring:   NewRing(cfg.Vnodes),
		client: &http.Client{Timeout: cfg.ProbeTimeout},
		nodes:  make(map[string]*memberNode),
		done:   make(chan struct{}),
	}
}

// Start launches the readiness-probe loop.
func (m *Membership) Start() {
	m.wg.Add(1)
	go m.probeLoop()
}

// Close stops the probe loop and waits for it to exit.
func (m *Membership) Close() {
	select {
	case <-m.done:
	default:
		close(m.done)
	}
	m.wg.Wait()
}

// Register validates a node by probing its /healthz (learning the input
// shape it serves), then admits it to the ring. Re-registering a known node
// refreshes its shape and marks it ready.
func (m *Membership) Register(url string) (serve.InputShape, error) {
	input, err := m.probeHealth(url)
	if err != nil {
		return serve.InputShape{}, fmt.Errorf("fleet: node %s failed registration probe: %w", url, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[url]
	if !ok {
		n = &memberNode{
			url:     url,
			breaker: NewBreaker(m.cfg.BreakerThreshold, m.cfg.BreakerCooldown, nil),
		}
		m.nodes[url] = n
	}
	n.mu.Lock()
	n.state = NodeReady
	n.probeFails = 0
	n.input = input
	n.mu.Unlock()
	m.ring.Add(url)
	m.cfg.Logf("fleet: node %s registered (input %dx%dx%d)", url, input.Channels, input.Height, input.Width)
	return input, nil
}

// Deregister removes a node from the ring and the probe list.
func (m *Membership) Deregister(url string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[url]; !ok {
		return fmt.Errorf("fleet: node %s is not registered", url)
	}
	delete(m.nodes, url)
	m.ring.Remove(url)
	m.cfg.Logf("fleet: node %s deregistered", url)
	return nil
}

// Candidates returns the model key's replica set: up to n distinct ready
// nodes in ring preference order. Nodes evicted by the prober are not in
// the ring and therefore never appear.
func (m *Membership) Candidates(model string, n int) []*memberNode {
	owners := m.ring.LookupN(model, n)
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*memberNode, 0, len(owners))
	for _, url := range owners {
		if node, ok := m.nodes[url]; ok {
			out = append(out, node)
		}
	}
	return out
}

// Input returns the input shape of any ready node, so the router can answer
// /healthz probes with the fleet's accepted geometry.
func (m *Membership) Input() (serve.InputShape, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.nodes {
		n.mu.Lock()
		state, input := n.state, n.input
		n.mu.Unlock()
		if state == NodeReady {
			return input, true
		}
	}
	return serve.InputShape{}, false
}

// ReadyCount returns how many nodes are in the ring.
func (m *Membership) ReadyCount() int { return m.ring.Len() }

// Snapshot lists every known node, ready and down, sorted by URL.
func (m *Membership) Snapshot() []NodeInfo {
	m.mu.Lock()
	nodes := make([]*memberNode, 0, len(m.nodes))
	for _, n := range m.nodes {
		nodes = append(nodes, n)
	}
	m.mu.Unlock()
	out := make([]NodeInfo, len(nodes))
	for i, n := range nodes {
		out[i] = n.snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

func (m *Membership) probeLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
			m.probeAll()
		}
	}
}

// probeAll polls every node's /readyz once and applies the state machine:
// ready + FailThreshold consecutive failures → evicted from the ring;
// down + one success → re-admitted.
func (m *Membership) probeAll() {
	m.mu.Lock()
	nodes := make([]*memberNode, 0, len(m.nodes))
	for _, n := range m.nodes {
		nodes = append(nodes, n)
	}
	m.mu.Unlock()

	for _, n := range nodes {
		ok := m.probeReady(n.url)
		n.mu.Lock()
		switch {
		case ok && n.state == NodeDown:
			n.state = NodeReady
			n.probeFails = 0
			n.mu.Unlock()
			m.ring.Add(n.url)
			m.cfg.Logf("fleet: node %s recovered, re-admitted to ring", n.url)
		case ok:
			n.probeFails = 0
			n.mu.Unlock()
		default:
			n.probeFails++
			evict := n.state == NodeReady && n.probeFails >= m.cfg.FailThreshold
			if evict {
				n.state = NodeDown
			}
			fails := n.probeFails
			n.mu.Unlock()
			if evict {
				m.ring.Remove(n.url)
				m.cfg.Logf("fleet: node %s evicted after %d failed readiness probes", n.url, fails)
			}
		}
	}
}

// probeReady polls {url}/readyz; only a 200 counts as ready (a draining
// node answers 503 here while its /healthz stays 200 — that split is what
// lets the router stop routing before the node stops answering).
func (m *Membership) probeReady(url string) bool {
	resp, err := m.client.Get(url + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// probeHealth fetches {url}/healthz and decodes the node's input shape.
func (m *Membership) probeHealth(url string) (serve.InputShape, error) {
	resp, err := m.client.Get(url + "/healthz")
	if err != nil {
		return serve.InputShape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.InputShape{}, fmt.Errorf("healthz status %s", resp.Status)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return serve.InputShape{}, fmt.Errorf("healthz decode: %w", err)
	}
	if h.Input.Volume() == 0 {
		return serve.InputShape{}, fmt.Errorf("node reports empty input shape")
	}
	return h.Input, nil
}
