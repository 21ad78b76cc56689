// Package serve is the inference serving tier of the Condor backend: it
// multiplexes many concurrent single-image clients onto a heterogeneous
// pool of deployed accelerators — local boards programmed through the
// SDAccel runtime and programmed F1 slots reached through the cloud API —
// behind one Server.
//
// The server is built from three cooperating pieces:
//
//   - admission control: a bounded request queue; when it is full Submit
//     fails fast with ErrQueueFull (backpressure) instead of letting latency
//     grow without bound, and per-request contexts carry deadlines and
//     cancellation;
//   - a work-conserving dispatcher: a batch is whatever is queued when a
//     backend comes free, capped at MaxBatch; an idle backend never waits.
//     Back-to-back images amortise the accelerator's pipeline fill (the
//     paper's Figure 5 batch behaviour) only when more than one image is
//     actually waiting, so batches form from backlog and from nothing else;
//   - a scheduler: each batch goes to the least-loaded free backend,
//     measured by accumulated modeled kernel milliseconds, so a mixed pool
//     of fast and slow devices stays balanced.
//
// Shutdown drains gracefully: admission stops, queued and in-flight batches
// complete, and every admitted request receives a reply. No admitted
// request is ever silently dropped — each one either completes or fails
// with an explicit backpressure, deadline or backend error.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"condor/internal/tensor"
)

// Backend is one inference executor the dispatcher sends batches to: a
// local board (condor.LocalDeployment) or one programmed F1 slot
// (condor.SlotBackend). The server never calls the same backend
// concurrently with itself, but different backends run in parallel from
// separate goroutines, so implementations must not share unsynchronised
// mutable state.
type Backend interface {
	// ID identifies the backend in stats (device id or instance/slot).
	ID() string
	// Infer runs one batch, returning outputs in input order and the
	// modeled kernel time in milliseconds.
	Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error)
}

// Sentinel errors of the admission path.
var (
	// ErrQueueFull is the backpressure signal: the bounded request queue is
	// at capacity and the request was rejected at admission.
	ErrQueueFull = errors.New("serve: request queue full (backpressure)")
	// ErrClosed reports a Submit after Shutdown started.
	ErrClosed = errors.New("serve: server is shut down")
)

// Config sizes the serving pipeline.
type Config struct {
	// Backends is the pool of inference executors (at least one).
	Backends []Backend
	// MaxBatch caps how many queued requests one dispatch takes (default 8).
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrQueueFull (default 64).
	QueueDepth int
	// LatencySamples sizes the reservoir behind the p50/p95/p99 estimates
	// (default 4096).
	LatencySamples int
}

func (c *Config) applyDefaults() error {
	if len(c.Backends) == 0 {
		return errors.New("serve: config needs at least one backend")
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.LatencySamples <= 0 {
		c.LatencySamples = 4096
	}
	return nil
}

// request is one admitted single-image inference.
type request struct {
	ctx        context.Context
	img        *tensor.Tensor
	enqueued   time.Time
	dispatched time.Time   // when the dispatcher took it off the queue
	done       chan result // buffered(1): the pipeline never blocks on delivery
}

type result struct {
	out      *tensor.Tensor
	kernelMs float64
	backend  string // ID of the backend that executed the request's batch
	err      error
}

// Server multiplexes concurrent clients onto the backend pool.
type Server struct {
	cfg   Config
	queue chan *request

	mu     sync.Mutex
	closed bool

	admitted sync.WaitGroup // one count per admitted request until its reply
	dispatch sync.WaitGroup // the dispatcher goroutine + every in-flight batch
	drain    sync.Once
	drained  chan struct{}

	sched *scheduler
	stats *statsCollector
}

// New starts a server over the configured backend pool. The dispatcher
// goroutine runs until Shutdown.
func New(cfg Config) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *request, cfg.QueueDepth),
		drained: make(chan struct{}),
		sched:   newScheduler(cfg.Backends),
		stats:   newStatsCollector(cfg.MaxBatch, cfg.LatencySamples),
	}
	s.dispatch.Add(1)
	go s.dispatchLoop()
	return s, nil
}

// SubmitResult is the detailed outcome of one request through the pipeline:
// the inference output, the modeled device time of its batch, and which
// backend executed it (the span tag fleet-level tracing stitches across
// processes).
type SubmitResult struct {
	Output   *tensor.Tensor
	KernelMs float64
	Backend  string
}

// Submit runs one image through the serving pipeline and blocks until the
// result is ready, the request's context expires, or admission rejects it.
// Every admitted request is eventually answered even if the caller has
// already given up on its context.
func (s *Server) Submit(ctx context.Context, img *tensor.Tensor) (*tensor.Tensor, float64, error) {
	r, err := s.SubmitDetailed(ctx, img)
	return r.Output, r.KernelMs, err
}

// SubmitDetailed is Submit with backend attribution for per-request tracing.
func (s *Server) SubmitDetailed(ctx context.Context, img *tensor.Tensor) (SubmitResult, error) {
	req := &request{ctx: ctx, img: img, enqueued: time.Now(), done: make(chan result, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SubmitResult{}, ErrClosed
	}
	// Counted before the send: a backend can answer, and finish can call
	// Done, before this goroutine runs again.
	s.admitted.Add(1)
	select {
	case s.queue <- req:
		s.stats.admit()
	default:
		s.admitted.Done()
		s.mu.Unlock()
		s.stats.reject()
		return SubmitResult{}, ErrQueueFull
	}
	s.mu.Unlock()
	select {
	case r := <-req.done:
		return SubmitResult{Output: r.out, KernelMs: r.kernelMs, Backend: r.backend}, r.err
	case <-ctx.Done():
		// The request stays in the pipeline (its batch still runs and the
		// reply lands in the buffered done channel); the caller gets the
		// explicit deadline/cancellation error now.
		return SubmitResult{}, ctx.Err()
	}
}

// Draining reports whether Shutdown has started: admission is closed and the
// server is settling in-flight work. The /readyz endpoint turns 503 on this
// signal so a fleet router stops routing to the node before its queue stops
// answering.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// finish delivers a request's reply exactly once and settles its admission
// accounting.
func (s *Server) finish(req *request, r result) {
	s.stats.settle(req, r)
	req.done <- r
	s.admitted.Done()
}

// dispatchLoop is the whole batching policy: wait until a backend is free,
// wait until a request is queued, take whatever else is already queued up to
// MaxBatch, and hand the batch to the least-loaded free backend. Requests
// wait in the queue (where QueueDepth and admission see them) only while the
// whole pool is busy, and that backlog is the only source of batches.
func (s *Server) dispatchLoop() {
	defer s.dispatch.Done()
	for {
		s.sched.waitFree()
		first, ok := <-s.queue
		if !ok {
			return
		}
		// Let submitters that are already runnable enqueue before the batch
		// forms. A local backend computes on its batch's goroutine without
		// blocking, so on a single processor no submitter would run between
		// two dispatches and every batch would hold one request, however
		// many clients wait. With nothing else runnable this returns at once.
		runtime.Gosched()
		reqs := s.take(first)
		if len(reqs) == 0 {
			continue // every taken request had expired; no backend was claimed
		}
		// Only this goroutine claims backends, so the one waitFree saw is
		// still free and acquire does not block.
		st := s.sched.acquire()
		s.stats.recordBatch(len(reqs))
		s.dispatch.Add(1)
		go s.run(st, reqs)
	}
}

// take forms a batch from first plus the requests already queued behind it,
// without waiting for more. A request whose context ended while it was
// queued is answered here with an explicit error rather than spending device
// time.
func (s *Server) take(first *request) []*request {
	n := min(1+len(s.queue), s.cfg.MaxBatch)
	reqs := make([]*request, 0, n)
	now := time.Now()
	for req, ok := first, true; ok; {
		if err := req.ctx.Err(); err != nil {
			s.finish(req, result{err: fmt.Errorf("serve: request expired while queued: %w", err)})
		} else {
			req.dispatched = now
			reqs = append(reqs, req)
		}
		if len(reqs) == n {
			break
		}
		select {
		case req, ok = <-s.queue: // not ok: Shutdown closed the drained queue
		default:
			ok = false
		}
	}
	return reqs
}

// run executes one batch on its claimed backend and answers every request
// of it. Batches on different backends run in parallel.
func (s *Server) run(st *backendState, reqs []*request) {
	defer s.dispatch.Done()
	imgs := make([]*tensor.Tensor, len(reqs))
	for i, r := range reqs {
		imgs[i] = r.img
	}
	outs, ms, err := st.backend.Infer(imgs)
	s.sched.release(st, ms, len(reqs), err != nil)
	id := st.backend.ID()
	if err != nil {
		err = fmt.Errorf("serve: backend %s: %w", id, err)
		for _, r := range reqs {
			s.finish(r, result{backend: id, err: err})
		}
		return
	}
	for i, r := range reqs {
		s.finish(r, result{out: outs[i], kernelMs: ms, backend: id})
	}
}

// Shutdown stops admission and drains: queued requests are dispatched,
// in-flight batches complete, and every admitted request receives its
// reply. ctx bounds how long to wait for the drain. Shutdown is
// idempotent; concurrent calls all wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.drain.Do(func() {
		go func() {
			s.dispatch.Wait()
			s.admitted.Wait()
			close(s.drained)
		}()
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown drain incomplete: %w", ctx.Err())
	}
}

// QueueDepth reports how many admitted requests are waiting for a backend.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Stats snapshots the serving counters, batch histogram, per-backend
// utilization and latency quantiles. The snapshot is taken under the
// admission lock so a poll during shutdown observes a queue depth
// consistent with the closed/draining state instead of racing the
// dispatcher retiring the final requests.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.snapshot(len(s.queue), s.cfg.QueueDepth, s.sched.snapshot())
}
