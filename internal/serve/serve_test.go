package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/tensor"
)

// fakeBackend echoes inputs after an optional fixed delay and records every
// batch size it executed. It asserts the scheduler's contract that a single
// backend is never invoked concurrently with itself.
type fakeBackend struct {
	id       string
	delay    time.Duration
	kernelMs float64
	gate     chan struct{} // when non-nil, Infer blocks until it is closed
	err      error

	inflight atomic.Int32
	overlap  atomic.Bool

	mu      sync.Mutex
	batches []int
}

func (f *fakeBackend) ID() string { return f.id }

func (f *fakeBackend) Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	if f.inflight.Add(1) > 1 {
		f.overlap.Store(true)
	}
	defer f.inflight.Add(-1)
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.batches = append(f.batches, len(batch))
	f.mu.Unlock()
	if f.err != nil {
		return nil, 0, f.err
	}
	outs := make([]*tensor.Tensor, len(batch))
	for i, img := range batch {
		t := tensor.New(img.Shape()...)
		copy(t.Data(), img.Data())
		outs[i] = t
	}
	ms := f.kernelMs
	if ms == 0 {
		ms = 1
	}
	return outs, ms, nil
}

func (f *fakeBackend) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...)
}

func img(v float32) *tensor.Tensor {
	t := tensor.New(1, 2, 2)
	for i := range t.Data() {
		t.Data()[i] = v
	}
	return t
}

func mustShutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// waitFor polls until cond holds: tests wait on the event they need, never
// on a sleep they hope is long enough.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// gatedBacklog drives 1+n echo requests at a server whose only backend is
// gated: it returns once the first is inside the backend and the other n sit
// in the queue. The returned wait blocks until every submitter has its reply
// and reports an error for any that failed or got another request's echo.
func gatedBacklog(t *testing.T, s *Server, fb *fakeBackend, n int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		out, _, err := s.Submit(context.Background(), img(float32(i)))
		if err != nil {
			t.Errorf("Submit %d: %v", i, err)
		} else if out.Data()[0] != float32(i) {
			t.Errorf("request %d got echo %v", i, out.Data()[0])
		}
	}
	wg.Add(1)
	go submit(0)
	waitFor(t, "the first request to reach the backend", func() bool { return fb.inflight.Load() == 1 })
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go submit(i)
	}
	waitFor(t, fmt.Sprintf("%d requests to queue", n), func() bool { return s.QueueDepth() == n })
	return wg.Wait
}

// Batches form from backlog: one request occupies the only backend, six more
// queue behind it, and when the backend comes free each dispatch takes what
// is waiting, capped at MaxBatch.
func TestBatchFormsFromBacklog(t *testing.T) {
	gate := make(chan struct{})
	fb := &fakeBackend{id: "b0", gate: gate}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	wait := gatedBacklog(t, s, fb, 6)
	close(gate)
	wait()
	mustShutdown(t, s)
	if got, want := fmt.Sprint(fb.batchSizes()), "[1 4 2]"; got != want {
		t.Fatalf("batch sizes %s, want %s", got, want)
	}
	st := s.Stats()
	if st.Batches != 3 || st.BatchSizeHist[1] != 1 || st.BatchSizeHist[4] != 1 || st.BatchSizeHist[2] != 1 {
		t.Fatalf("stats count %d batches, histogram %v", st.Batches, st.BatchSizeHist)
	}
}

// An idle backend never waits for company: with two free backends, two
// requests arriving one after the other run one on each, not as a pair.
func TestIdleBackendNeverCoalesces(t *testing.T) {
	gate := make(chan struct{})
	pool := []*fakeBackend{{id: "b0", gate: gate}, {id: "b1", gate: gate}}
	s, err := New(Config{Backends: []Backend{pool[0], pool[1]}, MaxBatch: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	inflight := func() int32 { return pool[0].inflight.Load() + pool[1].inflight.Load() }
	var wg sync.WaitGroup
	for i := int32(1); i <= 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Submit(context.Background(), img(1)); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
		waitFor(t, fmt.Sprintf("request %d to reach a backend", i), func() bool { return inflight() == i })
	}
	close(gate)
	wg.Wait()
	mustShutdown(t, s)
	for _, fb := range pool {
		if got := fmt.Sprint(fb.batchSizes()); got != "[1]" {
			t.Fatalf("backend %s ran batches %s, want [1]", fb.id, got)
		}
	}
}

// The price of a lone request is the pipeline's own overhead, not a wait
// for company that is not coming (the batch window cost 2 ms here).
func TestLoneRequestIsNotHeld(t *testing.T) {
	s, err := New(Config{Backends: []Backend{&fakeBackend{id: "b0"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, s)
	took := make([]time.Duration, 200)
	for i := range took {
		t0 := time.Now()
		if _, _, err := s.Submit(context.Background(), img(1)); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(t0)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if median := took[len(took)/2]; median >= 500*time.Microsecond {
		t.Fatalf("median admit-to-reply of a lone request %v, want < 500µs", median)
	}
}

// Admission is counted before the request is visible to the dispatcher: an
// instant backend answers before the submitter runs again, and finish must
// never see a request Submit has not counted yet (it panicked with a
// negative WaitGroup counter).
func TestAdmissionCountedBeforeEnqueue(t *testing.T) {
	s, err := New(Config{Backends: []Backend{&fakeBackend{id: "b0"}}, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	const submitters, each = 8, 2000
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := s.Submit(context.Background(), img(1)); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mustShutdown(t, s)
	if st := s.Stats(); st.Admitted != submitters*each || st.Completed != st.Admitted {
		t.Fatalf("admitted %d, completed %d, want %d each", st.Admitted, st.Completed, submitters*each)
	}
}

// Backpressure: once the bounded queue and the pipeline are saturated,
// Submit rejects immediately with ErrQueueFull, and every admitted request
// still completes once the backend unblocks.
func TestBackpressureRejection(t *testing.T) {
	gate := make(chan struct{})
	fb := &fakeBackend{id: "b0", gate: gate}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 12
	var completed, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Submit(context.Background(), img(1))
			switch {
			case err == nil:
				completed.Add(1)
			case errors.Is(err, ErrQueueFull):
				rejected.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	// Let the pipeline saturate against the gated backend, then release.
	waitFor(t, "a rejection at the saturated queue", func() bool { return s.Stats().Rejected > 0 })
	close(gate)
	wg.Wait()
	mustShutdown(t, s)
	if rejected.Load() == 0 {
		t.Fatal("no request saw backpressure despite a saturated queue")
	}
	if completed.Load()+rejected.Load() != clients {
		t.Fatalf("completed %d + rejected %d != %d clients", completed.Load(), rejected.Load(), clients)
	}
	st := s.Stats()
	if st.Admitted != st.Completed {
		t.Fatalf("admitted %d != completed %d: requests were dropped", st.Admitted, st.Completed)
	}
}

// Drain-on-shutdown: requests in the queue and in flight when Shutdown is
// called all receive replies; nothing is silently dropped.
func TestDrainOnShutdown(t *testing.T) {
	fb := &fakeBackend{id: "b0", delay: 2 * time.Millisecond}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 24
	outcomes := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Submit(context.Background(), img(1))
			outcomes <- err
		}()
	}
	time.Sleep(time.Millisecond) // let some requests enter the pipeline
	mustShutdown(t, s)
	wg.Wait()
	close(outcomes)
	var completed, closed int
	for err := range outcomes {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrClosed):
			closed++
		default:
			t.Fatalf("request dropped with unexpected error: %v", err)
		}
	}
	if completed+closed != clients {
		t.Fatalf("completed %d + closed %d != %d", completed, closed, clients)
	}
	st := s.Stats()
	if st.Admitted != st.Completed {
		t.Fatalf("admitted %d but completed %d: drain dropped in-flight requests", st.Admitted, st.Completed)
	}
	// Post-shutdown submits fail explicitly.
	if _, _, err := s.Submit(context.Background(), img(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after shutdown: %v, want ErrClosed", err)
	}
}

// Shutdown with more than MaxBatch requests queued behind a busy backend
// answers every one of them before it returns, and no goroutine of the
// server outlives it.
func TestShutdownDrainsBacklog(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	gate := make(chan struct{})
	fb := &fakeBackend{id: "b0", gate: gate}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	wait := gatedBacklog(t, s, fb, 9)
	down := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		down <- s.Shutdown(ctx)
	}()
	waitFor(t, "Shutdown to close admission", s.Draining)
	close(gate)
	if err := <-down; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wait()
	if got, want := fmt.Sprint(fb.batchSizes()), "[1 4 4 1]"; got != want {
		t.Fatalf("batch sizes %s, want %s", got, want)
	}
	if st := s.Stats(); st.Admitted != 10 || st.Completed != 10 || st.QueueDepth != 0 {
		t.Fatalf("after drain: admitted %d, completed %d, queue depth %d", st.Admitted, st.Completed, st.QueueDepth)
	}
	waitFor(t, "the server's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// A request whose context ends while it waits behind a busy backend gets an
// explicit context error, not a hang; the dispatcher answers it without
// spending device time, and a take in which every request had expired
// records no batch and leaves the backend free for the next request.
func TestDeadlineWhileQueued(t *testing.T) {
	gate := make(chan struct{})
	fb := &fakeBackend{id: "b0", gate: gate}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	wait := gatedBacklog(t, s, fb, 0) // occupies the only backend
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(ctx, img(2))
		queued <- err
	}()
	waitFor(t, "the second request to queue", func() bool { return s.QueueDepth() == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with a cancelled context: %v, want context.Canceled", err)
	}
	close(gate)
	wait()
	waitFor(t, "the dispatcher to answer the expired request", func() bool { return s.Stats().Expired == 1 })
	if _, _, err := s.Submit(context.Background(), img(3)); err != nil {
		t.Fatalf("Submit after an all-expired take: %v", err)
	}
	mustShutdown(t, s)
	if got := fmt.Sprint(fb.batchSizes()); got != "[1 1]" {
		t.Fatalf("backend ran batches %s, want [1 1]: the expired request must not reach it", got)
	}
	st := s.Stats()
	if st.Admitted != 3 || st.Completed != 2 || st.Expired != 1 || st.Batches != 2 || st.Backends[0].Busy {
		t.Fatalf("admitted %d, completed %d, expired %d, batches %d, backend busy %v; want 3, 2, 1, 2, false",
			st.Admitted, st.Completed, st.Expired, st.Batches, st.Backends[0].Busy)
	}
}

// The scheduler picks the least-loaded free backend and never overlaps
// calls on one backend.
func TestSchedulerLeastLoaded(t *testing.T) {
	sc := newScheduler([]Backend{&fakeBackend{id: "a"}, &fakeBackend{id: "b"}})
	first := sc.acquire()
	sc.release(first, 100, 1, false) // "a" now carries 100ms of load
	second := sc.acquire()
	if second.backend.ID() == first.backend.ID() {
		t.Fatalf("scheduler picked the loaded backend %q over an idle one", first.backend.ID())
	}
	sc.release(second, 1, 1, false)
	// With "a" at 100ms and "b" at 1ms, the next pick is "b" again.
	third := sc.acquire()
	if third.backend.ID() != second.backend.ID() {
		t.Fatalf("scheduler picked %q, want least-loaded %q", third.backend.ID(), second.backend.ID())
	}
	sc.release(third, 1, 1, false)
}

// Backend errors propagate to every request of the failed batch with the
// backend identified.
func TestBackendErrorPropagates(t *testing.T) {
	fb := &fakeBackend{id: "flaky", err: errors.New("kernel fault")}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Submit(context.Background(), img(1))
	if err == nil || !errors.Is(err, fb.err) {
		t.Fatalf("Submit: %v, want wrapped %v", err, fb.err)
	}
	mustShutdown(t, s)
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
}

// Concurrent-client race test: many clients over a mixed-speed pool under
// -race. Every request must settle with an explicit outcome, the batch
// histogram must account for every dispatched image, and no backend may
// observe overlapping calls.
func TestConcurrentClientsRace(t *testing.T) {
	pool := []Backend{
		&fakeBackend{id: "fast0", kernelMs: 0.2},
		&fakeBackend{id: "fast1", kernelMs: 0.3},
		&fakeBackend{id: "slow0", kernelMs: 2, delay: time.Millisecond},
	}
	s, err := New(Config{Backends: pool, MaxBatch: 8, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 64, 4
	var completed, rejected, expired atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				ctx := context.Background()
				if c%8 == 0 { // a slice of clients runs with tight deadlines
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, 3*time.Millisecond)
					defer cancel()
				}
				_, _, err := s.Submit(ctx, img(float32(c)))
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				default:
					t.Errorf("client %d: unexpected error %v", c, err)
				}
			}
		}(c)
	}
	wg.Wait()
	mustShutdown(t, s)
	if got := completed.Load() + rejected.Load() + expired.Load(); got != clients*perClient {
		t.Fatalf("settled %d of %d requests", got, clients*perClient)
	}
	for _, b := range pool {
		if b.(*fakeBackend).overlap.Load() {
			t.Fatalf("backend %s saw overlapping Infer calls", b.ID())
		}
	}
	st := s.Stats()
	var histImages uint64
	for size, count := range st.BatchSizeHist {
		histImages += uint64(size) * count
	}
	if histImages < st.Completed {
		t.Fatalf("batch histogram covers %d images, %d completed", histImages, st.Completed)
	}
	if st.Completed == 0 {
		t.Fatal("no request completed")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends should fail")
	}
}

func TestQuantiles(t *testing.T) {
	var samples []float64
	for i := 1; i <= 100; i++ {
		samples = append(samples, float64(i))
	}
	q := quantiles(samples)
	if q[0] < 49 || q[0] > 51 || q[1] < 94 || q[1] > 96 || q[2] < 98 || q[2] > 100 {
		t.Fatalf("quantiles of 1..100 = %v", q)
	}
	if z := quantiles(nil); z != [3]float64{} {
		t.Fatalf("quantiles(nil) = %v", z)
	}
}

func TestStatsUtilization(t *testing.T) {
	fb := &fakeBackend{id: "b0", kernelMs: 5}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := s.Submit(context.Background(), img(1)); err != nil {
			t.Fatal(err)
		}
	}
	mustShutdown(t, s)
	st := s.Stats()
	if len(st.Backends) != 1 || st.Backends[0].Images != 4 {
		t.Fatalf("backend stats %+v, want 4 images on b0", st.Backends)
	}
	if st.Backends[0].BusyMs != 5*float64(st.Backends[0].Batches) {
		t.Fatalf("busy ms %v for %d batches of kernelMs=5", st.Backends[0].BusyMs, st.Backends[0].Batches)
	}
	if st.KernelMsP50 != 5 {
		t.Fatalf("kernel p50 %v, want 5", st.KernelMsP50)
	}
}

func ExampleServer() {
	fb := &fakeBackend{id: "board0"}
	s, _ := New(Config{Backends: []Backend{fb}, MaxBatch: 4})
	out, _, err := s.Submit(context.Background(), img(7))
	fmt.Println(err == nil, out.Data()[0])
	s.Shutdown(context.Background()) //nolint:errcheck
	// Output: true 7
}
