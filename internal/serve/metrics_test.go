package serve

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/obs"
)

// TestStatsDuringDrain polls Stats (the /statsz and /metricsz read path)
// concurrently with a full submit/shutdown cycle. Under -race this pins the
// fix for the snapshot racing the dispatcher during drain: the snapshot is
// taken under the same admission lock Shutdown closes the queue with.
func TestStatsDuringDrain(t *testing.T) {
	fb := &fakeBackend{id: "b0", delay: 200 * time.Microsecond}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 4; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := s.Stats()
					if st.QueueDepth < 0 || st.QueueDepth > st.QueueCapacity {
						t.Errorf("inconsistent snapshot: depth %d cap %d", st.QueueDepth, st.QueueCapacity)
						return
					}
				}
			}
		}()
	}

	var clients sync.WaitGroup
	for i := 0; i < 32; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			_, _, err := s.Submit(context.Background(), img(float32(i)))
			if err != nil && err != ErrQueueFull && err != ErrClosed {
				t.Errorf("Submit: %v", err)
			}
		}(i)
	}
	clients.Wait()
	mustShutdown(t, s)
	close(stop)
	pollers.Wait()

	st := s.Stats()
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after drain, want 0", st.QueueDepth)
	}
	if st.Admitted != st.Completed+st.Expired+st.Failed {
		t.Errorf("admission accounting does not balance: %+v", st)
	}
}

// TestRegisterMetrics checks the Prometheus bridge renders every
// condor_serve_* family with numbers matching the Stats snapshot.
func TestRegisterMetrics(t *testing.T) {
	gate := make(chan struct{})
	fb := &fakeBackend{id: "b0", kernelMs: 3, gate: gate}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RegisterMetrics(reg, s)

	// Eight requests as batches of 1, 4 and 3: the last seven queue while the
	// first holds the backend.
	wait := gatedBacklog(t, s, fb, 7)
	close(gate)
	wait()
	mustShutdown(t, s)

	text := reg.TextSnapshot()
	for _, want := range []string{
		`condor_serve_requests_total{state="admitted"} 8`,
		`condor_serve_requests_total{state="completed"} 8`,
		`condor_serve_batches_total 3`,
		`condor_serve_batch_size_bucket{le="1"} 1`,
		`condor_serve_batch_size_bucket{le="4"} 3`,
		`condor_serve_batch_size_sum 8`,
		`condor_serve_batch_size_count 3`,
		`condor_serve_backend_batches_total{backend="b0"} 3`,
		`condor_serve_backend_images_total{backend="b0"} 8`,
		`condor_serve_latency_ms{kind="kernel",q="0.5"} 3`,
		`condor_serve_latency_ms{kind="queue",q="0.5"} `,
		`condor_serve_latency_ms{kind="queue",q="0.95"} `,
		`condor_serve_latency_ms{kind="queue",q="0.99"} `,
		`condor_serve_queue_capacity 16`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s:\n%s", want, text)
		}
	}

	// The wait for a backend is part of admit-to-reply, request by request,
	// so it cannot exceed it at any quantile; seven of the eight waited.
	st := s.Stats()
	for _, q := range [][2]float64{
		{st.QueueMsP50, st.TotalMsP50}, {st.QueueMsP95, st.TotalMsP95}, {st.QueueMsP99, st.TotalMsP99},
	} {
		if q[0] <= 0 || q[0] > q[1] {
			t.Errorf("queue wait %v ms against admit-to-reply %v ms, want 0 < queue <= total", q[0], q[1])
		}
	}
}
