package fleet

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"condor/internal/serve"
	"condor/internal/tensor"
)

// fakeTarget records SetDesiredSlots calls.
type fakeTarget struct {
	desired int
	calls   []int
	cost    float64
}

func (f *fakeTarget) SetDesiredSlots(n int) error {
	f.desired = n
	f.calls = append(f.calls, n)
	return nil
}
func (f *fakeTarget) ReadySlots() int   { return f.desired }
func (f *fakeTarget) PendingSlots() int { return 0 }
func (f *fakeTarget) CostUSD() float64  { return f.cost }

func pressureScrape(p *float64) func() []NodeMetrics {
	return func() []NodeMetrics {
		return []NodeMetrics{{URL: "http://n", QueueDepth: *p * 100, QueueCapacity: 100}}
	}
}

func TestAutoscalerScalesUpImmediately(t *testing.T) {
	target := &fakeTarget{}
	pressure := 0.9
	a := NewAutoscaler(AutoscalerConfig{MinSlots: 1, MaxSlots: 4}, pressureScrape(&pressure), target)

	a.Step()
	if target.desired != 2 {
		t.Fatalf("desired after one hot step = %d, want 2", target.desired)
	}
	// Still hot: keeps stepping up to the clamp, never past it.
	for i := 0; i < 10; i++ {
		a.Step()
	}
	if target.desired != 4 {
		t.Fatalf("desired after sustained pressure = %d, want clamp 4", target.desired)
	}
	st := a.Stats()
	if st.ScaleUps != 3 {
		t.Errorf("scale-ups = %d, want 3 (1→2→3→4)", st.ScaleUps)
	}
	if st.Pressure != 0.9 {
		t.Errorf("pressure = %v, want 0.9", st.Pressure)
	}
	if len(st.Events) == 0 || st.Events[0].Dir != "up" {
		t.Errorf("events = %+v, want leading up event", st.Events)
	}
}

func TestAutoscalerScaleDownNeedsHysteresis(t *testing.T) {
	target := &fakeTarget{}
	pressure := 0.9
	a := NewAutoscaler(AutoscalerConfig{
		MinSlots: 1, MaxSlots: 4, ScaleDownAfter: 3,
	}, pressureScrape(&pressure), target)
	a.Step() // desired 2
	a.Step() // desired 3

	pressure = 0.05
	a.Step()
	a.Step()
	if target.desired != 3 {
		t.Fatalf("scaled down after only 2 calm intervals (desired %d)", target.desired)
	}
	a.Step()
	if target.desired != 2 {
		t.Fatalf("desired after 3 calm intervals = %d, want 2", target.desired)
	}

	// A pressure blip inside the band resets the calm streak.
	a.Step()
	a.Step()
	pressure = 0.5
	a.Step() // in-band: resets calm
	pressure = 0.05
	a.Step()
	if target.desired != 2 {
		t.Fatalf("calm streak survived an in-band blip (desired %d)", target.desired)
	}

	// Never below MinSlots.
	for i := 0; i < 20; i++ {
		a.Step()
	}
	if target.desired != 1 {
		t.Fatalf("desired floor = %d, want MinSlots 1", target.desired)
	}
}

func TestFleetPressureTakesWorstSignal(t *testing.T) {
	nodes := []NodeMetrics{
		{URL: "a", QueueDepth: 10, QueueCapacity: 100, Utilization: 0.2, TotalP99Ms: 40},
		{URL: "b", QueueDepth: 5, QueueCapacity: 100, Utilization: 0.6, TotalP99Ms: 90},
	}
	if got := fleetPressure(nodes, 0); got != 0.6 {
		t.Errorf("pressure without SLO = %v, want 0.6 (b's utilization)", got)
	}
	// With a 100ms SLO, b's 90ms p99 dominates.
	if got := fleetPressure(nodes, 100); got != 0.9 {
		t.Errorf("pressure with SLO = %v, want 0.9 (b's p99/SLO)", got)
	}
	if got := fleetPressure(nil, 100); got != 0 {
		t.Errorf("pressure of empty fleet = %v, want 0", got)
	}
}

// heldBackend finishes as many batches as release holds tokens, each
// modeled at 40 ms, and holds the next one until release is closed.
type heldBackend struct{ release chan struct{} }

func (b *heldBackend) ID() string { return "fpga:0" }

func (b *heldBackend) Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	<-b.release
	return batch, 40, nil
}

// TestParseNodeMetrics scrapes a real serving node's /statsz through the
// membership: its one backend has finished two requests and holds a third
// while three more queue behind it. A registered node without /statsz is
// left out.
func TestParseNodeMetrics(t *testing.T) {
	be := &heldBackend{release: make(chan struct{}, 2)}
	be.release <- struct{}{}
	be.release <- struct{}{}
	srv, err := serve.New(serve.Config{Backends: []serve.Backend{be}, MaxBatch: 1, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	input := serve.InputShape{Channels: 1, Height: 8, Width: 8}
	node := httptest.NewServer(serve.NewHandler(srv, input, 5*time.Second))
	defer node.Close()
	img := tensor.New(input.Channels, input.Height, input.Width)
	for i := 0; i < 2; i++ {
		if _, _, err := srv.Submit(context.Background(), img); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Submit(context.Background(), img)
		}()
	}
	defer func() {
		close(be.release)
		wg.Wait()
		srv.Shutdown(context.Background())
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.QueueDepth() != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 3 behind the held request", srv.QueueDepth())
		}
	}

	members := NewMembership(MembershipConfig{})
	defer members.Close()
	for _, url := range []string{node.URL, newStubNode(t, okInfer).srv.URL} {
		if _, err := members.Register(url); err != nil {
			t.Fatal(err)
		}
	}
	got := NewMetricsScraper(members).Scrape()
	if len(got) != 1 || got[0].URL != node.URL {
		t.Fatalf("scraped %+v, want the serving node only", got)
	}
	m, st := got[0], srv.Stats()
	if m.QueueDepth != 3 || m.QueueCapacity != 16 {
		t.Errorf("queue = %v/%v, want 3/16", m.QueueDepth, m.QueueCapacity)
	}
	if got := m.QueuePressure(); got != 3.0/16.0 {
		t.Errorf("QueuePressure = %v, want %v", got, 3.0/16.0)
	}
	if m.TotalP99Ms <= 0 || m.TotalP99Ms != st.TotalMsP99 {
		t.Errorf("p99 = %v, the node reports %v", m.TotalP99Ms, st.TotalMsP99)
	}
	// Busy time is fixed while the backend is held and uptime only grows,
	// so the scraped utilization is at least the later snapshot's.
	if m.Utilization <= 0 || m.Utilization < st.Backends[0].Utilization {
		t.Errorf("utilization = %v, the node reports %v a moment later", m.Utilization, st.Backends[0].Utilization)
	}
}
