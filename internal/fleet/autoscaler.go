package fleet

import (
	"sync"
	"time"
)

// ScaleTarget is the capacity the autoscaler drives. The production
// implementation is aws.FleetModel — simulated F1 instances with modeled
// spin-up latency and per-hour cost — but the control law only sees slots.
type ScaleTarget interface {
	// SetDesiredSlots moves the target capacity; implementations launch or
	// terminate instances to cover it.
	SetDesiredSlots(n int) error
	// ReadySlots is the capacity currently usable (spin-up elapsed).
	ReadySlots() int
	// PendingSlots is launched capacity still inside its spin-up window.
	PendingSlots() int
	// CostUSD is the accumulated modeled spend.
	CostUSD() float64
}

// AutoscalerConfig shapes the control loop.
type AutoscalerConfig struct {
	// Interval between control iterations (default 1s).
	Interval time.Duration
	// HighWater: pressure above it scales up (default 0.75).
	HighWater float64
	// LowWater: pressure below it for ScaleDownAfter consecutive intervals
	// scales down (default 0.20). The asymmetric hysteresis keeps the fleet
	// from flapping around one threshold.
	LowWater float64
	// ScaleDownAfter is that consecutive-interval count (default 5).
	ScaleDownAfter int
	// Step is how many slots one decision adds or removes (default 1).
	Step int
	// MinSlots / MaxSlots clamp the desired capacity (defaults 0 / 8).
	MinSlots int
	MaxSlots int
	// SLOTargetMs: a scraped p99 above it counts as saturation even when
	// queues look shallow, so latency SLOs scale the fleet before queues
	// overflow. 0 disables the latency term.
	SLOTargetMs float64
	// Logf receives scaling decisions; nil discards them.
	Logf func(format string, a ...any)
}

func (c *AutoscalerConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.HighWater <= 0 {
		c.HighWater = 0.75
	}
	if c.LowWater <= 0 {
		c.LowWater = 0.20
	}
	if c.ScaleDownAfter <= 0 {
		c.ScaleDownAfter = 5
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	if c.MaxSlots <= 0 {
		c.MaxSlots = 8
	}
	if c.MinSlots < 0 {
		c.MinSlots = 0
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// ScaleEvent records one decision for /statsz.
type ScaleEvent struct {
	At       time.Time `json:"at"`
	Dir      string    `json:"dir"` // "up" | "down"
	Desired  int       `json:"desired"`
	Pressure float64   `json:"pressure"`
}

// AutoscalerStats is the autoscaler's /statsz block.
type AutoscalerStats struct {
	Desired      int           `json:"desired_slots"`
	Ready        int           `json:"ready_slots"`
	Pending      int           `json:"pending_slots"`
	Pressure     float64       `json:"pressure"`
	CostUSD      float64       `json:"cost_usd"`
	ScaleUps     uint64        `json:"scale_ups"`
	ScaleDowns   uint64        `json:"scale_downs"`
	LastDecision string        `json:"last_decision,omitempty"`
	Nodes        []NodeMetrics `json:"nodes,omitempty"`
	Events       []ScaleEvent  `json:"events,omitempty"`
}

// Autoscaler closes the loop between scraped node metrics and simulated F1
// capacity: each interval it reduces the fleet's /statsz figures to one
// pressure scalar — the worst node's max of queue occupancy, backend
// utilization, and (optionally) p99-vs-SLO ratio — and moves the
// ScaleTarget one Step when the pressure leaves the [LowWater, HighWater]
// band. Scale-down needs ScaleDownAfter consecutive calm intervals;
// scale-up fires immediately, because under-capacity costs deadline misses
// while over-capacity only costs simulated dollars.
type Autoscaler struct {
	cfg    AutoscalerConfig
	target ScaleTarget
	scrape func() []NodeMetrics

	mu         sync.Mutex
	desired    int
	calm       int
	pressure   float64
	lastNodes  []NodeMetrics
	events     []ScaleEvent
	scaleUps   uint64
	scaleDowns uint64
	lastMsg    string

	done chan struct{}
	wg   sync.WaitGroup
}

// NewAutoscaler wires a control loop over a scrape source and a target.
func NewAutoscaler(cfg AutoscalerConfig, scrape func() []NodeMetrics, target ScaleTarget) *Autoscaler {
	cfg.applyDefaults()
	a := &Autoscaler{
		cfg:     cfg,
		target:  target,
		scrape:  scrape,
		desired: cfg.MinSlots,
		done:    make(chan struct{}),
	}
	return a
}

// Start applies the MinSlots floor to the target, then launches the
// control loop — the fleet holds its baseline capacity from the first
// moment, not after the first scale-up decision.
func (a *Autoscaler) Start() {
	a.mu.Lock()
	if a.desired > 0 {
		if err := a.target.SetDesiredSlots(a.desired); err != nil {
			a.cfg.Logf("fleet: autoscaler: applying %d-slot floor failed: %v", a.desired, err)
		}
	}
	a.mu.Unlock()
	a.wg.Add(1)
	go a.loop()
}

// Stop halts the loop and waits for it.
func (a *Autoscaler) Stop() {
	select {
	case <-a.done:
	default:
		close(a.done)
	}
	a.wg.Wait()
}

func (a *Autoscaler) loop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-ticker.C:
			a.Step()
		}
	}
}

// Step runs one control iteration (exported so tests drive the law without
// timers).
func (a *Autoscaler) Step() {
	nodes := a.scrape()
	pressure := fleetPressure(nodes, a.cfg.SLOTargetMs)

	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastNodes = nodes
	a.pressure = pressure

	switch {
	case pressure > a.cfg.HighWater && a.desired < a.cfg.MaxSlots:
		a.calm = 0
		a.desired += a.cfg.Step
		if a.desired > a.cfg.MaxSlots {
			a.desired = a.cfg.MaxSlots
		}
		a.apply("up", pressure)
	case pressure < a.cfg.LowWater:
		a.calm++
		if a.calm >= a.cfg.ScaleDownAfter && a.desired > a.cfg.MinSlots {
			a.calm = 0
			a.desired -= a.cfg.Step
			if a.desired < a.cfg.MinSlots {
				a.desired = a.cfg.MinSlots
			}
			a.apply("down", pressure)
		}
	default:
		a.calm = 0
	}
}

// apply pushes the new desired capacity to the target. Called with a.mu held.
func (a *Autoscaler) apply(dir string, pressure float64) {
	if err := a.target.SetDesiredSlots(a.desired); err != nil {
		a.lastMsg = "scale " + dir + " failed: " + err.Error()
		a.cfg.Logf("fleet: autoscaler: %s", a.lastMsg)
		return
	}
	if dir == "up" {
		a.scaleUps++
	} else {
		a.scaleDowns++
	}
	ev := ScaleEvent{At: time.Now(), Dir: dir, Desired: a.desired, Pressure: pressure}
	a.events = append(a.events, ev)
	if len(a.events) > 32 {
		a.events = a.events[len(a.events)-32:]
	}
	a.lastMsg = ev.Dir
	a.cfg.Logf("fleet: autoscaler scaled %s to %d slots (pressure %.2f, cost $%.2f)",
		dir, a.desired, pressure, a.target.CostUSD())
}

// Stats snapshots the loop.
func (a *Autoscaler) Stats() AutoscalerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AutoscalerStats{
		Desired:      a.desired,
		Ready:        a.target.ReadySlots(),
		Pending:      a.target.PendingSlots(),
		Pressure:     a.pressure,
		CostUSD:      a.target.CostUSD(),
		ScaleUps:     a.scaleUps,
		ScaleDowns:   a.scaleDowns,
		LastDecision: a.lastMsg,
		Nodes:        append([]NodeMetrics(nil), a.lastNodes...),
		Events:       append([]ScaleEvent(nil), a.events...),
	}
}

// fleetPressure reduces the scraped fleet to one saturation scalar: the
// worst node's max of queue occupancy, utilization and p99/SLO ratio. Max
// (not mean) because consistent hashing concentrates a model's traffic —
// one saturated node is a deadline-miss source even while the fleet
// average looks idle.
func fleetPressure(nodes []NodeMetrics, sloMs float64) float64 {
	var p float64
	for _, n := range nodes {
		if q := n.QueuePressure(); q > p {
			p = q
		}
		if n.Utilization > p {
			p = n.Utilization
		}
		if sloMs > 0 {
			if r := n.TotalP99Ms / sloMs; r > p {
				p = r
			}
		}
	}
	return p
}
