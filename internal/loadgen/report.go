package loadgen

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// ReportKind tags loadgen JSON so consumers (CI's smoke step, scripts) can
// detect the shape without schema negotiation.
const ReportKind = "condor-loadgen"

// SweepKind tags a multi-rate sweep: several Reports in one envelope.
const SweepKind = "condor-loadgen-sweep"

// Sweep is the JSON envelope for a -rates run: one Report per offered load.
type Sweep struct {
	Kind string    `json:"kind"`
	Runs []*Report `json:"runs"`
}

// Quantiles summarises a latency distribution in milliseconds.
type Quantiles struct {
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
	P999  float64 `json:"p999_ms"`
	Mean  float64 `json:"mean_ms"`
	Max   float64 `json:"max_ms"`
	Count int     `json:"count"`
}

// CDFPoint is one point of the exported latency CDF.
type CDFPoint struct {
	LatencyMs float64 `json:"latency_ms"`
	Fraction  float64 `json:"fraction"`
}

// ClassReport is one priority class's slice of the run.
type ClassReport struct {
	Sent         int       `json:"sent"`
	OK           int       `json:"ok"`
	DeadlineMiss int       `json:"deadline_miss"`
	Shed         int       `json:"shed"`
	Rejected     int       `json:"rejected"`
	Errors       int       `json:"errors"`
	GoodputRPS   float64   `json:"goodput_rps"`
	Latency      Quantiles `json:"latency"`
}

// Report is one run's full accounting: offered vs achieved load, the
// outcome breakdown, and latency quantiles overall and per class.
type Report struct {
	Kind        string  `json:"kind"`
	Target      string  `json:"target"`
	Arrival     string  `json:"arrival"`
	OfferedRPS  float64 `json:"offered_rps"`
	DurationSec float64 `json:"duration_sec"`
	DeadlineMs  float64 `json:"deadline_ms,omitempty"`

	Sent         int `json:"sent"`
	OK           int `json:"ok"`
	DeadlineMiss int `json:"deadline_miss"`
	Shed         int `json:"shed"`
	Rejected     int `json:"rejected"`
	Errors       int `json:"errors"`

	// GoodputRPS counts only on-time successes — the figure that saturates
	// (and then degrades) as offered load passes capacity.
	GoodputRPS float64   `json:"goodput_rps"`
	Latency    Quantiles `json:"latency"`
	// CDF is the answered-request latency distribution at fixed fractions.
	CDF []CDFPoint `json:"cdf,omitempty"`

	Classes map[string]*ClassReport `json:"classes"`
}

// report reduces the recorded outcomes.
func (g *generator) report(sent int, elapsed time.Duration) *Report {
	g.mu.Lock()
	recs := g.recs
	g.mu.Unlock()

	rep := &Report{
		Kind:        ReportKind,
		Target:      g.cfg.TargetURL,
		Arrival:     g.cfg.Arrival,
		OfferedRPS:  g.cfg.RateRPS,
		DurationSec: elapsed.Seconds(),
		DeadlineMs:  g.cfg.DeadlineMs,
		Sent:        sent,
		Classes: map[string]*ClassReport{
			"high": {},
			"low":  {},
		},
	}
	var all, perClass = []float64{}, map[string][]float64{}
	for _, r := range recs {
		c := rep.Classes[r.class]
		c.Sent++
		switch r.outcome {
		case OutcomeOK:
			rep.OK++
			c.OK++
		case OutcomeDeadlineMiss:
			rep.DeadlineMiss++
			c.DeadlineMiss++
		case OutcomeShed:
			rep.Shed++
			c.Shed++
		case OutcomeRejected:
			rep.Rejected++
			c.Rejected++
		default:
			rep.Errors++
			c.Errors++
		}
		// Latency is meaningful for requests that ran to an answer; sheds
		// and rejects settle in microseconds and would flatter the CDF.
		if r.outcome == OutcomeOK || r.outcome == OutcomeDeadlineMiss {
			all = append(all, r.latencyMs)
			perClass[r.class] = append(perClass[r.class], r.latencyMs)
		}
	}
	sec := elapsed.Seconds()
	if sec > 0 {
		rep.GoodputRPS = float64(rep.OK) / sec
		for name, c := range rep.Classes {
			c.GoodputRPS = float64(c.OK) / sec
			c.Latency = summarize(perClass[name])
		}
	}
	rep.Latency = summarize(all)
	rep.CDF = cdf(all)
	return rep
}

// summarize computes quantiles over a latency sample (sorts in place).
func summarize(ms []float64) Quantiles {
	q := Quantiles{Count: len(ms)}
	if len(ms) == 0 {
		return q
	}
	sort.Float64s(ms)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	q.Mean = sum / float64(len(ms))
	q.Max = ms[len(ms)-1]
	q.P50 = quantile(ms, 0.50)
	q.P95 = quantile(ms, 0.95)
	q.P99 = quantile(ms, 0.99)
	q.P999 = quantile(ms, 0.999)
	return q
}

// quantile reads the q-th quantile from a sorted sample (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// cdf samples the sorted latency distribution at fixed fractions.
func cdf(sorted []float64) []CDFPoint {
	if len(sorted) == 0 {
		return nil
	}
	fracs := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0}
	out := make([]CDFPoint, 0, len(fracs))
	for _, f := range fracs {
		out = append(out, CDFPoint{LatencyMs: quantile(sorted, f), Fraction: f})
	}
	return out
}

// WriteTable renders the human-readable summary.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "target %s  arrival %s  offered %.1f req/s  duration %.1fs\n",
		r.Target, r.Arrival, r.OfferedRPS, r.DurationSec)
	if r.DeadlineMs > 0 {
		fmt.Fprintf(w, "deadline %.0f ms\n", r.DeadlineMs)
	}
	fmt.Fprintf(w, "\n%-8s %8s %8s %8s %8s %8s %8s %12s\n",
		"class", "sent", "ok", "miss", "shed", "reject", "error", "goodput")
	row := func(name string, sent, ok, miss, shed, rej, errs int, goodput float64) {
		fmt.Fprintf(w, "%-8s %8d %8d %8d %8d %8d %8d %9.1f/s\n",
			name, sent, ok, miss, shed, rej, errs, goodput)
	}
	for _, name := range []string{"high", "low"} {
		if c, ok := r.Classes[name]; ok && c.Sent > 0 {
			row(name, c.Sent, c.OK, c.DeadlineMiss, c.Shed, c.Rejected, c.Errors, c.GoodputRPS)
		}
	}
	row("total", r.Sent, r.OK, r.DeadlineMiss, r.Shed, r.Rejected, r.Errors, r.GoodputRPS)
	if r.Latency.Count > 0 {
		fmt.Fprintf(w, "\nlatency (ms over %d answered): p50 %.2f  p95 %.2f  p99 %.2f  p99.9 %.2f  max %.2f\n",
			r.Latency.Count, r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.P999, r.Latency.Max)
	}
}
