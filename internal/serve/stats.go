package serve

import (
	"sort"
	"sync"
	"time"
)

// Stats is a point-in-time view of the serving pipeline, shaped for the
// /statsz endpoint.
type Stats struct {
	// Admission.
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Admitted      uint64 `json:"admitted"`
	Rejected      uint64 `json:"rejected"` // backpressure (ErrQueueFull)
	Completed     uint64 `json:"completed"`
	Expired       uint64 `json:"expired"` // context ended while queued
	Failed        uint64 `json:"failed"`  // backend errors

	// Batching. BatchSizeHist[n] counts dispatched batches of n images.
	Batches       uint64         `json:"batches"`
	BatchSizeHist map[int]uint64 `json:"batch_size_hist"`

	// Latency quantiles over the most recent completed requests. KernelMs
	// is the modeled device time of the request's batch; QueueMs is the wall
	// time from admission to dispatch (the wait for a free backend) and
	// TotalMs from admission to reply (that wait + the backend call).
	KernelMsP50 float64 `json:"kernel_ms_p50"`
	KernelMsP95 float64 `json:"kernel_ms_p95"`
	KernelMsP99 float64 `json:"kernel_ms_p99"`
	QueueMsP50  float64 `json:"queue_ms_p50"`
	QueueMsP95  float64 `json:"queue_ms_p95"`
	QueueMsP99  float64 `json:"queue_ms_p99"`
	TotalMsP50  float64 `json:"total_ms_p50"`
	TotalMsP95  float64 `json:"total_ms_p95"`
	TotalMsP99  float64 `json:"total_ms_p99"`

	// Per-backend accounting. Utilization is modeled-busy milliseconds over
	// the server's wall uptime (device time is modeled, so this substitutes
	// for the hardware occupancy a real F1 runtime would report).
	UptimeMs float64        `json:"uptime_ms"`
	Backends []BackendStats `json:"backends"`
}

// BackendStats is one pool member's share of the work.
type BackendStats struct {
	ID          string  `json:"id"`
	Busy        bool    `json:"busy"`
	Batches     uint64  `json:"batches"`
	Images      uint64  `json:"images"`
	Failures    uint64  `json:"failures"`
	BusyMs      float64 `json:"busy_ms"`
	Utilization float64 `json:"utilization"`
}

// statsCollector accumulates counters and a bounded reservoir of latency
// samples. All methods are safe for concurrent use.
type statsCollector struct {
	mu        sync.Mutex
	start     time.Time
	admitted  uint64
	rejected  uint64
	completed uint64
	expired   uint64
	failed    uint64
	batches   uint64
	hist      map[int]uint64

	// Ring buffers of the most recent completed-request samples.
	kernelMs []float64
	queueMs  []float64
	totalMs  []float64
	next     int
	filled   bool
}

func newStatsCollector(maxBatch, samples int) *statsCollector {
	return &statsCollector{
		start:    time.Now(),
		hist:     make(map[int]uint64, maxBatch),
		kernelMs: make([]float64, samples),
		queueMs:  make([]float64, samples),
		totalMs:  make([]float64, samples),
	}
}

func (c *statsCollector) admit() {
	c.mu.Lock()
	c.admitted++
	c.mu.Unlock()
}

func (c *statsCollector) reject() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
}

func (c *statsCollector) recordBatch(size int) {
	c.mu.Lock()
	c.batches++
	c.hist[size]++
	c.mu.Unlock()
}

// settle classifies a finished request and, on success, records its latency
// samples.
func (c *statsCollector) settle(req *request, r result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.err != nil {
		if req.ctx.Err() != nil {
			c.expired++
		} else {
			c.failed++
		}
		return
	}
	c.completed++
	c.kernelMs[c.next] = r.kernelMs
	c.queueMs[c.next] = float64(req.dispatched.Sub(req.enqueued)) / float64(time.Millisecond)
	c.totalMs[c.next] = float64(time.Since(req.enqueued)) / float64(time.Millisecond)
	c.next++
	if c.next == len(c.kernelMs) {
		c.next = 0
		c.filled = true
	}
}

func (c *statsCollector) snapshot(queueDepth, queueCap int, backends []BackendStats) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.next
	if c.filled {
		n = len(c.kernelMs)
	}
	kq := quantiles(c.kernelMs[:n])
	qq := quantiles(c.queueMs[:n])
	tq := quantiles(c.totalMs[:n])
	st := Stats{
		QueueDepth:    queueDepth,
		QueueCapacity: queueCap,
		Admitted:      c.admitted,
		Rejected:      c.rejected,
		Completed:     c.completed,
		Expired:       c.expired,
		Failed:        c.failed,
		Batches:       c.batches,
		BatchSizeHist: make(map[int]uint64, len(c.hist)),
		KernelMsP50:   kq[0], KernelMsP95: kq[1], KernelMsP99: kq[2],
		QueueMsP50: qq[0], QueueMsP95: qq[1], QueueMsP99: qq[2],
		TotalMsP50: tq[0], TotalMsP95: tq[1], TotalMsP99: tq[2],
		UptimeMs: float64(time.Since(c.start)) / float64(time.Millisecond),
		Backends: backends,
	}
	for k, v := range c.hist {
		st.BatchSizeHist[k] = v
	}
	for i := range st.Backends {
		if st.UptimeMs > 0 {
			st.Backends[i].Utilization = st.Backends[i].BusyMs / st.UptimeMs
		}
	}
	return st
}

// MaxBatchFormed returns the largest dispatched batch size, a convenience
// for tests and the stress gate (batching actually happened).
func (s Stats) MaxBatchFormed() int {
	max := 0
	for size := range s.BatchSizeHist {
		if size > max {
			max = size
		}
	}
	return max
}

// quantiles returns the p50/p95/p99 of the samples (zeros when empty).
func quantiles(samples []float64) [3]float64 {
	if len(samples) == 0 {
		return [3]float64{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	pick := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return [3]float64{pick(0.50), pick(0.95), pick(0.99)}
}
