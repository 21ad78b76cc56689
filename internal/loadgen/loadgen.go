// Package loadgen is an open-loop load generator for the fleet tier: it
// offers requests at a configured arrival rate regardless of how fast the
// system answers (closed-loop generators slow down with the system under
// test and hide saturation — the coordinated-omission trap), stamps each
// request with a priority class and deadline, and classifies every reply
// into ok / deadline-miss / shed / rejected / error so the goodput-vs-offered
// curve and the shed breakdown fall straight out of one run.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"condor/internal/fleet"
	"condor/internal/obs"
)

// Arrival processes.
const (
	// ArrivalPoisson draws exponential inter-arrival gaps — the memoryless
	// process that models independent users.
	ArrivalPoisson = "poisson"
	// ArrivalFixed spaces arrivals exactly 1/rate apart.
	ArrivalFixed = "fixed"
)

// Config shapes one load-generation run.
type Config struct {
	// TargetURL is the router (or node) base URL; requests go to /infer.
	TargetURL string
	// RateRPS is the offered arrival rate (required, > 0).
	RateRPS float64
	// Duration is how long arrivals are generated (default 10s).
	Duration time.Duration
	// Arrival is ArrivalPoisson (default) or ArrivalFixed.
	Arrival string
	// Body is the request body each arrival POSTs (required).
	Body []byte
	// DeadlineMs is the per-request deadline; 0 disables deadlines. A 200
	// that arrives after its deadline is a deadline-miss, not goodput.
	DeadlineMs float64
	// HighFraction is the share of arrivals sent high-priority (default 1.0;
	// the rest carry X-Condor-Priority: low).
	HighFraction float64
	// Model sets X-Condor-Model on every request when non-empty.
	Model string
	// Timeout bounds one request when no deadline applies (default 30s).
	Timeout time.Duration
	// Seed makes the arrival process and priority mix reproducible
	// (default 1).
	Seed int64
}

func (c *Config) applyDefaults() error {
	if c.TargetURL == "" {
		return fmt.Errorf("loadgen: TargetURL is required")
	}
	if c.RateRPS <= 0 {
		return fmt.Errorf("loadgen: RateRPS must be > 0 (got %v)", c.RateRPS)
	}
	if len(c.Body) == 0 {
		return fmt.Errorf("loadgen: Body is required")
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.Arrival != ArrivalPoisson && c.Arrival != ArrivalFixed {
		return fmt.Errorf("loadgen: unknown arrival process %q", c.Arrival)
	}
	if c.HighFraction <= 0 || c.HighFraction > 1 {
		c.HighFraction = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Outcome classes. Every sent request lands in exactly one.
const (
	OutcomeOK           = "ok"            // 200 within deadline
	OutcomeDeadlineMiss = "deadline_miss" // 200 too late, or timed out in flight
	OutcomeShed         = "shed"          // router admission shed (typed 503)
	OutcomeRejected     = "rejected"      // backpressure (429)
	OutcomeError        = "error"         // anything else
)

// rec is one classified request.
type rec struct {
	class     string // priority class: "high" | "low"
	outcome   string
	latencyMs float64 // set for every answered request
}

// Run offers load per cfg and blocks until every in-flight request settles.
// Cancelling ctx stops new arrivals; requests already in flight still
// complete and are counted.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	g := &generator{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	return g.run(ctx)
}

type generator struct {
	cfg    Config
	client *http.Client
	rng    *rand.Rand

	mu   sync.Mutex
	recs []rec
}

func (g *generator) run(ctx context.Context) (*Report, error) {
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(g.cfg.Duration)
	sent := 0

	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C

	// Arrivals follow an absolute schedule: each gap is added to the previous
	// arrival's planned time, not to when its timer fired, so wake-up latency
	// under CPU load does not pile up into a lower offered rate. A generator
	// that falls behind fires at once until it has caught up.
	next := start
arrivals:
	for next.Before(end) {
		if ctx.Err() != nil {
			break
		}
		high := g.rng.Float64() < g.cfg.HighFraction
		sent++
		wg.Add(1)
		go func(hi bool) {
			defer wg.Done()
			g.record(g.fire(ctx, hi))
		}(high)

		next = next.Add(g.gap())
		timer.Reset(time.Until(next))
		select {
		case <-ctx.Done():
			break arrivals
		case <-timer.C:
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := g.report(sent, elapsed)
	// The zero-silent-drop invariant: every arrival must be accounted for in
	// exactly one outcome bucket. A mismatch is a generator or fleet bug and
	// must fail loudly, never average away.
	counted := rep.OK + rep.DeadlineMiss + rep.Shed + rep.Rejected + rep.Errors
	if counted != rep.Sent {
		return rep, fmt.Errorf("loadgen: accounting mismatch: sent %d but classified %d (silent drop?)",
			rep.Sent, counted)
	}
	return rep, nil
}

// gap draws the next inter-arrival delay.
func (g *generator) gap() time.Duration {
	period := float64(time.Second) / g.cfg.RateRPS
	if g.cfg.Arrival == ArrivalFixed {
		return time.Duration(period)
	}
	return time.Duration(g.rng.ExpFloat64() * period)
}

// fire sends one request and classifies the reply.
func (g *generator) fire(ctx context.Context, high bool) rec {
	r := rec{class: "high"}
	if !high {
		r.class = "low"
	}

	cancel := func() {}
	if g.cfg.DeadlineMs > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(g.cfg.DeadlineMs*float64(time.Millisecond)))
	}
	defer cancel()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.cfg.TargetURL+"/infer", bytes.NewReader(g.cfg.Body))
	if err != nil {
		r.outcome = OutcomeError
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, obs.NewRequestID())
	if !high {
		req.Header.Set(fleet.PriorityHeader, "low")
	}
	if g.cfg.DeadlineMs > 0 {
		req.Header.Set(fleet.DeadlineHeader, fmt.Sprintf("%.0f", g.cfg.DeadlineMs))
	}
	if g.cfg.Model != "" {
		req.Header.Set(fleet.ModelHeader, g.cfg.Model)
	}

	t0 := time.Now()
	resp, err := g.client.Do(req)
	r.latencyMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		// The transport gave up: against a deadline that is a miss (the
		// open-loop arrival waited its full budget), otherwise an error.
		if g.cfg.DeadlineMs > 0 && ctx.Err() != nil {
			r.outcome = OutcomeDeadlineMiss
		} else {
			r.outcome = OutcomeError
		}
		return r
	}
	defer resp.Body.Close()
	var body fleet.RouterError
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck // classification below tolerates empty

	switch {
	case resp.StatusCode == http.StatusOK:
		if g.cfg.DeadlineMs > 0 && r.latencyMs > g.cfg.DeadlineMs {
			r.outcome = OutcomeDeadlineMiss
		} else {
			r.outcome = OutcomeOK
		}
	case body.Code == fleet.CodeShedLowPriority:
		r.outcome = OutcomeShed
	case resp.StatusCode == http.StatusTooManyRequests:
		r.outcome = OutcomeRejected
	default:
		r.outcome = OutcomeError
	}
	return r
}

func (g *generator) record(r rec) {
	g.mu.Lock()
	g.recs = append(g.recs, r)
	g.mu.Unlock()
}
