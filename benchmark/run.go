package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"condor"
	"condor/internal/tensor"
)

// workload is one named set of inputs the benchmark runs. rate 0 means a
// closed loop with one caller; otherwise an open loop of Poisson arrivals at
// that many requests per second over conns keep-alive connections.
type workload struct {
	name  string
	why   string
	rate  float64
	table string // Table 1 row of the workload's network, for paper_gflops_ratio
	// newInstance builds and deploys a fresh system under test from the seed.
	// rec is nil when tracing is off.
	newInstance func(ctx context.Context, seed int64, rec *recorder) (instance, error)
}

// conns is the open-loop generator's fixed connection pool.
const conns = 2

func (w *workload) loop() string {
	if w.rate == 0 {
		return "closed, 1 caller"
	}
	return fmt.Sprintf("open, Poisson %g req/s, %d conns", w.rate, conns)
}

// instance is a deployed system under test plus the oracle for its outputs.
type instance interface {
	// ready is how long the system's own set-up took: model generation,
	// build, deploy, listeners, registration. Preparing the oracle (the nn
	// reference outputs) is not the system's work and is left out.
	ready() time.Duration
	// op performs op i and checks its output against the oracle.
	op(ctx context.Context, i int) outcome
	// built returns the accelerator the simulated metrics describe.
	built() *condor.Build
	// windowStart marks the start of the timed window, so counters the
	// layers keep themselves can be reported as deltas.
	windowStart()
	// layers adds the per-layer metrics of a traced pass.
	layers(win *window, m metricSet) error
	close() error
}

// betweener is implemented by instances that do untimed work after each op
// of a traced closed loop (the staged toolflow replay).
type betweener interface {
	between(i int) error
}

// window is what the timed phase of a pass produced.
type window struct {
	recs    []opRecord
	elapsed time.Duration         // window start → last op settled
	raw     []span                // the traced pass's spans …
	spans   map[string]spanTotals // … and their roll-up by name
	// Over the correct ops: latencies from the due time in ascending order,
	// their mean, and the mean generator lateness. failed counts the others.
	latMs      []float64
	opMeanMs   float64
	lateMeanMs float64
	failed     int
	// probe is how long each direct-call probe of the traced pass measures
	// for (a fiftieth of the window: 300 ms at the default 15 s).
	probe time.Duration
}

// passConfig parameterises one pass (untraced or traced) over one workload.
type passConfig struct {
	seed     int64
	warmup   time.Duration
	duration time.Duration
	setups   int
	traced   bool
}

// passResult is what one pass measured.
type passResult struct {
	Workload  string    `json:"workload"`
	Traced    bool      `json:"traced"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Outcomes  []int     `json:"outcomes"` // indexed by outcome
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
}

// runPass sets the workload up (cfg.setups times, keeping the last), warms
// it, measures one timed window and tears it down. A wrong accounting or a
// failed budget identity is an error; failed ops are counted, not fatal.
func runPass(ctx context.Context, w *workload, cfg passConfig) (res *passResult, rec *recorder, err error) {
	if cfg.traced {
		rec = newRecorder(w.name)
	}
	var inst instance
	var readies []float64
	for k := 0; k < cfg.setups; k++ {
		var r *recorder
		if k == cfg.setups-1 {
			r = rec
		}
		in, err := w.newInstance(ctx, cfg.seed, r)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		readies = append(readies, in.ready().Seconds())
		if k < cfg.setups-1 {
			if err := in.close(); err != nil {
				return nil, nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
			}
			continue
		}
		inst = in
	}
	defer func() {
		if cerr := inst.close(); err == nil && cerr != nil {
			err = fmt.Errorf("%s: tear-down: %w", w.name, cerr)
		}
	}()

	phase := func(seed int64, dur time.Duration) ([]opRecord, error) {
		if w.rate > 0 {
			return runOpenLoop(ctx, poissonSchedule(seed, w.rate, dur), conns, inst.op), ctx.Err()
		}
		var between func(int) error
		if b, ok := inst.(betweener); ok && cfg.traced {
			between = b.between
		}
		return runClosedLoop(ctx, dur, inst.op, between)
	}

	warm, err := phase(cfg.seed^0x5eed, cfg.warmup)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	for _, r := range warm {
		if r.Result != opOK {
			return nil, nil, fmt.Errorf("%s: warm-up op ended %s", w.name, outcomeNames[r.Result])
		}
	}
	rec.reset()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inst.windowStart()
	recs, err := phase(cfg.seed, cfg.duration)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: timed window: %w", w.name, err)
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("%s: the timed window completed no op", w.name)
	}

	res = &passResult{Workload: w.name, Traced: cfg.traced, Attempted: len(recs),
		Outcomes: make([]int, numOutcomes), EndToEnd: metricSet{}}
	win := &window{recs: recs, raw: rec.snapshot(), probe: cfg.duration / 50}
	win.spans = rollUp(win.raw)
	var lat, late []float64
	for _, r := range recs {
		res.Outcomes[r.Result]++
		if r.Done > win.elapsed {
			win.elapsed = r.Done
		}
		if r.Result == opOK {
			lat = append(lat, millis(r.latency()))
			late = append(late, millis(r.lateness()))
		}
	}
	ok := res.Outcomes[opOK]
	res.Failed = res.Attempted - ok
	// The zero-silent-drop identity: sent = ok + wrong + late + refused +
	// error. A record the generator never settled is in none of them.
	if n := res.Outcomes[opUnsettled]; n > 0 {
		return nil, nil, fmt.Errorf("%s: accounting mismatch: sent %d, classified %d", w.name, res.Attempted, res.Attempted-n)
	}
	sort.Float64s(lat)
	win.latMs, win.opMeanMs, win.lateMeanMs, win.failed = lat, mean(lat), mean(late), res.Failed

	e := res.EndToEnd
	e.set(endToEnd, "setup_s", median(readies), len(readies))
	e.set(endToEnd, "op_ms_p50", percentile(lat, 50), len(lat))
	e.set(endToEnd, "op_ms_p95", percentile(lat, 95), len(lat))
	e.set(endToEnd, "op_ms_mean", win.opMeanMs, len(lat))
	e.set(endToEnd, "ops_per_s", float64(ok)/win.elapsed.Seconds(), len(lat))
	e.set(endToEnd, "failed_share", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	e.set(endToEnd, "host_allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(res.Attempted), res.Attempted)
	built := inst.built()
	if built == nil {
		return nil, nil, fmt.Errorf("%s: no op got as far as building an accelerator", w.name)
	}
	perf, err := built.Performance()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: performance model: %w", w.name, err)
	}
	ratio, err := paperGFLOPSRatio(w.table)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: Table 1: %w", w.name, err)
	}
	e.set(endToEnd, "modeled_cycles_per_img", float64(perf.BottleneckCycles), 0)
	e.set(endToEnd, "modeled_gflops", perf.GFLOPS, 0)
	e.set(endToEnd, "paper_gflops_ratio", ratio, 0)

	if !cfg.traced {
		return res, nil, nil
	}
	m := metricSet{}
	res.PerLayer = m
	if err := inst.layers(win, m); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	m.set(perLayer, "perf.latency_ms_modeled", perf.LatencyMs, 0)
	m.set(perLayer, "power.total_w", perf.PowerW, 0)
	m.set(perLayer, "process.bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(res.Attempted), res.Attempted)
	m.set(perLayer, "process.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	m.set(perLayer, "process.peak_rss_mb", peakRSSMB(), 0)
	return res, rec, nil
}

var table1 struct {
	once sync.Once
	rows []condor.Table1Row
	err  error
}

// paperGFLOPSRatio builds the named network the Table 1 way (once per
// process) and divides its modeled GFLOPS by the figure the paper reports.
func paperGFLOPSRatio(row string) (float64, error) {
	table1.once.Do(func() { table1.rows, table1.err = condor.Table1() })
	if table1.err != nil {
		return 0, table1.err
	}
	for i, r := range table1.rows {
		if r.Name == row {
			return r.GFLOPS / condor.Table1Paper[i].GFLOPS, nil
		}
	}
	return 0, fmt.Errorf("no Table 1 row %q", row)
}

// peakRSSMB reads the process's resident-set high-water mark, 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// checkOutput holds an output to the oracle: every element within tol of the
// reference, and the same argmax — unless the reference's own two largest
// elements are closer than the tolerance can tell apart, in which case either
// of them is a right answer.
func checkOutput(got, want *tensor.Tensor, tol float64) bool {
	if got == nil || !tensor.SameShape(got, want) {
		return false
	}
	if d := tensor.MaxAbsDiff(got, want); math.IsNaN(d) || d > tol {
		return false
	}
	ref := want.Data()
	return float64(ref[want.ArgMax()]-ref[got.ArgMax()]) <= 2*tol
}

// timeMedian runs fn until it has both minIters runs and minTime of work and
// returns the median run in milliseconds with the run count.
func timeMedian(minIters int, minTime time.Duration, fn func() error) (float64, int, error) {
	var runs []float64
	start := time.Now()
	for len(runs) < minIters || time.Since(start) < minTime {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		runs = append(runs, millis(time.Since(t0)))
	}
	return median(runs), len(runs), nil
}

// httpNode is an http.Server on a loopback listener the benchmark started.
type httpNode struct {
	url  string
	srv  *http.Server
	done chan error
}

// serveHTTP starts h on 127.0.0.1:0. stop shuts it down and joins it.
func serveHTTP(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{
		url: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: time.Minute},
		done: make(chan error, 1),
	}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

func (n *httpNode) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		// Every op has settled by now. What Shutdown still waits for is a
		// connection a transport dialled and never used, which it would only
		// give up on after five seconds.
		err = n.srv.Close()
	}
	if serr := <-n.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}
