package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"condor/internal/serve"
)

// This file is the autoscaler's input side: the per-node scrape that
// distils a node's /statsz snapshot (serve.Stats) into the three signals the
// control law needs — queue pressure, backend utilization, and the p99 total
// latency.

// NodeMetrics is one node's scraped control signals.
type NodeMetrics struct {
	URL           string  `json:"url"`
	QueueDepth    float64 `json:"queue_depth"`
	QueueCapacity float64 `json:"queue_capacity"`
	// Utilization is the mean modeled-busy fraction across the node's
	// backends.
	Utilization float64 `json:"utilization"`
	// TotalP99Ms is the node's p99 end-to-end latency over its reservoir.
	TotalP99Ms float64 `json:"total_p99_ms"`
}

// QueuePressure is queue depth over capacity (0 when capacity is unknown).
func (m NodeMetrics) QueuePressure() float64 {
	if m.QueueCapacity <= 0 {
		return 0
	}
	return m.QueueDepth / m.QueueCapacity
}

// nodeMetrics distils one node's Stats.
func nodeMetrics(url string, st *serve.Stats) NodeMetrics {
	m := NodeMetrics{
		URL:           url,
		QueueDepth:    float64(st.QueueDepth),
		QueueCapacity: float64(st.QueueCapacity),
		TotalP99Ms:    st.TotalMsP99,
	}
	if n := len(st.Backends); n > 0 {
		var sum float64
		for _, b := range st.Backends {
			sum += b.Utilization
		}
		m.Utilization = sum / float64(n)
	}
	return m
}

// MetricsScraper polls every ready node's /statsz. The Membership-backed
// implementation is what the autoscaler runs against in production; tests
// substitute the Scrape func directly.
type MetricsScraper struct {
	members *Membership
	client  *http.Client
}

// NewMetricsScraper builds a scraper over the router's membership.
func NewMetricsScraper(members *Membership) *MetricsScraper {
	return &MetricsScraper{
		members: members,
		client:  &http.Client{Timeout: members.cfg.ProbeTimeout},
	}
}

// Scrape fetches metrics from every ready node, sorted by URL. Nodes that
// fail to answer are omitted — the control law works on what it can see.
func (s *MetricsScraper) Scrape() []NodeMetrics {
	var out []NodeMetrics
	for _, url := range s.members.ring.Members() {
		if m, err := s.scrape(url); err == nil {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// scrape fetches and distils one node's /statsz.
func (s *MetricsScraper) scrape(url string) (NodeMetrics, error) {
	resp, err := s.client.Get(url + "/statsz")
	if err != nil {
		return NodeMetrics{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return NodeMetrics{}, fmt.Errorf("statsz status %s", resp.Status)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return NodeMetrics{}, fmt.Errorf("statsz decode: %w", err)
	}
	return nodeMetrics(url, &st), nil
}
