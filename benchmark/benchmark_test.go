package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"condor/internal/obs"
)

func TestPercentileAndTenSamplesBeyondRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{400, 95, 20}, {400, 99, 4}, {100, 95, 5}, {100, 90, 10}, {1000, 99, 10}, {0, 95, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	// ≈ 400 ops is the smallest workload at the default window: p95 is the
	// highest percentile with ten samples beyond it, p99 is not.
	for _, c := range []struct {
		n    int
		want float64
	}{{400, 95}, {100, 90}, {1000, 99}, {10000, 99.9}, {19, 0}, {20, 50}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPoissonScheduleIsReproducible(t *testing.T) {
	a := poissonSchedule(7, 300, 2*time.Second)
	b := poissonSchedule(7, 300, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := poissonSchedule(8, 300, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) != 600 {
		t.Fatalf("300 req/s over 2 s scheduled %d arrivals, want 600", len(a))
	}
	for i, d := range a {
		if d < 0 || d >= 2*time.Second {
			t.Fatalf("arrival %d due at %v, outside the window", i, d)
		}
		if i > 0 && d < a[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

// With one connection and four ops all due at once, each op waits for the
// ones before it, and that wait is part of its latency.
func TestOpenLoopTimesFromDueTimeWhenThePoolIsExhausted(t *testing.T) {
	const service = 20 * time.Millisecond
	recs := runOpenLoop(context.Background(), make([]time.Duration, 4), 1, func(context.Context, int) outcome {
		time.Sleep(service)
		return opOK
	})
	for i, r := range recs {
		if r.Result != opOK {
			t.Fatalf("op %d ended %s", i, outcomeNames[r.Result])
		}
		if min := time.Duration(i+1) * service; r.latency() < min {
			t.Errorf("op %d latency %v, want at least %v: the wait for the connection must count", i, r.latency(), min)
		}
		if min := time.Duration(i) * service; r.lateness() < min {
			t.Errorf("op %d lateness %v, want at least %v", i, r.lateness(), min)
		}
		if r.latency()-r.lateness() > 2*service {
			t.Errorf("op %d spent %v on the wire, want about %v", i, r.latency()-r.lateness(), service)
		}
	}
	// Two connections halve the queue.
	recs = runOpenLoop(context.Background(), make([]time.Duration, 4), 2, func(context.Context, int) outcome {
		time.Sleep(service)
		return opOK
	})
	if last := recs[3].latency(); last >= 3*service {
		t.Errorf("with two connections the fourth op took %v, want under %v", last, 3*service)
	}
}

func TestSelfTimeOnASyntheticSpanTree(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "client.op", Op: 1, Start: at(0), End: at(100)},
		{Name: "fleet.router", Parent: "client.op", Op: 1, Start: at(10), End: at(90)},
		{Name: "serve.handler", Parent: "fleet.router", Op: 1, Start: at(20), End: at(50)},
		// A retry: a second, overlapping child that also runs past its parent.
		{Name: "serve.handler", Parent: "fleet.router", Op: 1, Start: at(40), End: at(95)},
		// Another op's span must not be taken for a child of op 1.
		{Name: "fleet.router", Parent: "client.op", Op: 2, Start: at(0), End: at(100)},
		{Name: "backend.infer", Op: noOp, Start: at(25), End: at(45), N: 3},
	}
	got := rollUp(spans)
	if self := got["client.op"].Self; self != at(20) {
		t.Errorf("client.op self = %v, want 20ms (100 − the router's 80)", self)
	}
	// Router of op 1: 80 − union([20,50],[40,90 clipped]) = 80 − 70 = 10;
	// router of op 2 has no children: 100.
	if self := got["fleet.router"].Self; self != at(110) {
		t.Errorf("fleet.router self = %v, want 110ms", self)
	}
	if h := got["serve.handler"]; h.Count != 2 || h.Total != at(85) || h.Self != at(85) {
		t.Errorf("serve.handler = %+v, want 2 spans, 85ms total, all of it self", h)
	}
	if b := got["backend.infer"]; b.N != 3 || b.TotalByN != at(60) || b.Self != at(20) {
		t.Errorf("backend.infer = %+v, want N 3, 60ms weighted, 20ms self", b)
	}
	if m := got["client.op"].selfMeanMs(); m != 20 {
		t.Errorf("client.op self mean = %g ms, want 20", m)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %g, %g, want 0.75, 2.25", q1, q3)
	}
}

func defOf(t *testing.T, name string) metricDef {
	t.Helper()
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no metric %q", name)
	return metricDef{}
}

func TestCompareVerdicts(t *testing.T) {
	cases := []struct {
		metric string
		a, b   []float64
		want   string
	}{
		// Relative bound, lower is better.
		{"op_ms_p50", []float64{10}, []float64{12.4}, verdictWithin},
		{"op_ms_p50", []float64{10}, []float64{12.6}, verdictWorse},
		{"op_ms_p50", []float64{10}, []float64{7.4}, verdictBetter},
		{"setup_s", []float64{0.02}, []float64{0.024}, verdictWithin},
		{"setup_s", []float64{0.02}, []float64{0.026}, verdictWorse},
		{"host_allocs_per_op", []float64{400}, []float64{419}, verdictWithin},
		{"host_allocs_per_op", []float64{400}, []float64{421}, verdictWorse},
		// Higher is better.
		{"ops_per_s", []float64{100}, []float64{74}, verdictWorse},
		{"ops_per_s", []float64{100}, []float64{76}, verdictWithin},
		{"ops_per_s", []float64{100}, []float64{130}, verdictBetter},
		// An absolute bound.
		{"failed_share", []float64{0}, []float64{0.0005}, verdictWithin},
		{"failed_share", []float64{0}, []float64{0.002}, verdictWorse},
		// No bound: reported, not judged (timed per-layer metrics too).
		{"op_ms_p95", []float64{10}, []float64{20}, verdictUnbounded},
		{"op_ms_mean", []float64{10}, []float64{5}, verdictUnbounded},
		{"serve.handler_ms", []float64{2}, []float64{4}, verdictUnbounded},
		// Exact: simulated metrics and counts must repeat.
		{"modeled_cycles_per_img", []float64{6464}, []float64{6464}, verdictWithin},
		{"modeled_cycles_per_img", []float64{6464}, []float64{6465}, verdictWorse},
		{"modeled_cycles_per_img", []float64{6464}, []float64{6000}, verdictBetter},
		{"modeled_cycles_per_img", []float64{6464, 6464}, []float64{6464, 6470, 6464}, verdictWorse},
		{"modeled_gflops", []float64{128.5}, []float64{128.4}, verdictWorse},
		{"dataflow.macs_per_img", []float64{2293000}, []float64{2293001}, verdictWorse},
		// Closer to 1: the direction is |ratio − 1|, on either side of 1.
		{"paper_gflops_ratio", []float64{0.62}, []float64{0.84}, verdictBetter},
		{"paper_gflops_ratio", []float64{0.84}, []float64{1.30}, verdictWorse},
		// The baseline's own quartiles are wider apart than the bound: a
		// worse median is unresolved while the runs overlap …
		{"op_ms_p50", []float64{10, 14, 9, 15, 10, 16}, []float64{15, 17, 16, 18, 14, 17}, verdictUnresolved},
		// … and resolved once every run of the change is worse than every
		// run of the baseline.
		{"op_ms_p50", []float64{10, 14, 9, 15, 10, 16}, []float64{17, 19, 18, 20, 17, 18}, verdictWorse},
		{"op_ms_p50", []float64{10, 14, 9, 15, 10, 16}, []float64{7, 8, 6, 8, 7, 5}, verdictBetter},
		// A steady baseline resolves a small excess.
		{"op_ms_p50", []float64{10, 10.1, 9.9, 10, 10.1, 9.9}, []float64{12.7, 12.8, 12.6, 12.7, 12.8, 12.9}, verdictWorse},
	}
	for _, c := range cases {
		if got, _, _ := judge(defOf(t, c.metric), c.a, c.b); got != c.want {
			t.Errorf("%s: %v → %v judged %q, want %q", c.metric, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	a := &resultFile{Env: currentEnvironment(1, 15*time.Second)}
	b := &resultFile{Env: a.Env}
	if err := compareResults(&bytes.Buffer{}, a, b); err != nil {
		t.Fatalf("identical environments refused: %v", err)
	}
	for name, change := range map[string]func(*environment){
		"nproc":       func(e *environment) { e.NumCPU++ },
		"GOMAXPROCS":  func(e *environment) { e.GOMAXPROCS = 1 },
		"CPU model":   func(e *environment) { e.CPUModel += " (other)" },
		"Go version":  func(e *environment) { e.GoVersion = "go0.0" },
		"duration":    func(e *environment) { e.DurationS = 5 },
		"seed":        func(e *environment) { e.Seed = 2 },
		"connections": func(e *environment) { e.Conns = 4 },
	} {
		b.Env = a.Env
		change(&b.Env)
		if err := compareResults(&bytes.Buffer{}, a, b); err == nil || !strings.Contains(err.Error(), "environments differ") {
			t.Errorf("a different %s was not refused: %v", name, err)
		}
	}
}

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONNamesWhatTheProgramReports(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no contract file beside the benchmark: %v", err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	e2e := contractMetrics(false)
	if len(c.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program reports %d", len(c.EndToEnd), len(e2e))
	}
	for i, m := range c.EndToEnd {
		// One table of bounds: the driver and -compare must give one verdict.
		if d := e2e[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %s/%s/%s/%g in the program", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s has bound %g, want a share in (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := contractMetrics(true)
	if len(c.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program reports %d", len(c.PerLayer), len(layers))
	}
	for i, m := range c.PerLayer {
		d := layers[i]
		// The contract knows two directions; a ratio below 1 that should be
		// closer to 1 should be higher.
		better := d.Better
		if better == closer1 {
			better = higher
		}
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %s/%s/%s in the program", i, m, d.Name, d.Unit, better)
		}
	}
}

// If the first op fails before it builds anything, the staged replay has
// nothing to hold itself against: an error, not a nil dereference.
func TestReplayWithoutABuildIsAnError(t *testing.T) {
	if err := (&toolflow{}).between(0); err == nil {
		t.Error("the replay ran although no op had built an accelerator")
	}
}

// short is a pass small enough for a unit test.
func short(seed int64) passConfig {
	return passConfig{seed: seed, warmup: 100 * time.Millisecond, duration: 300 * time.Millisecond, setups: 3}
}

func TestContractPrintsOneResultObjectLast(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		err := runContract(context.Background(), &out, "serve-node-low", short(3), traced)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("the last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := got[key]; !ok {
				t.Errorf("the result lacks %q", key)
			}
		}
		if len(got) != 4 {
			t.Errorf("the result has %d keys, want exactly 4", len(got))
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := contractMetrics(traced)
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics reported, want %d", traced, len(metrics), len(want))
		}
		for _, d := range want {
			if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s reported as %+v, want a value in %s", traced, d.Name, m, d.Unit)
			}
		}
	}
	if err := runContract(context.Background(), &bytes.Buffer{}, "no-such-workload", short(1), false); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// The smoke test runs all five workloads, untraced then traced, on a short
// window: every output checked, every budget identity asserted, the result
// file comparable with itself and the trace loadable.
func TestSmokeAllFiveWorkloads(t *testing.T) {
	dir := t.TempDir()
	out, trace := filepath.Join(dir, "run.json"), filepath.Join(dir, "trace.json")
	var log bytes.Buffer
	if err := runAll(context.Background(), &log, short(1), 1, out, trace); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	file, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != 5 {
		t.Fatalf("%d workloads in the result file, want 5", len(file.Workloads))
	}
	for _, w := range file.Workloads {
		for _, d := range endToEnd {
			if _, ok := w.Untraced[0].EndToEnd[d.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s is missing", w.Name, d.Name)
			}
			if !strings.Contains(log.String(), d.Name) {
				t.Errorf("metric %s is not printed", d.Name)
			}
		}
		if w.Traced == nil || len(w.Traced.PerLayer) == 0 {
			t.Errorf("%s: no per-layer metrics", w.Name)
		}
		if w.Untraced[0].Failed != 0 || w.Traced.Failed != 0 {
			t.Errorf("%s: %d + %d ops failed", w.Name, w.Untraced[0].Failed, w.Traced.Failed)
		}
	}
	var table bytes.Buffer
	if err := compareResults(&table, file, file); err != nil {
		t.Errorf("a result does not agree with itself: %v\n%s", err, table.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		t.Errorf("the trace does not load: %v", err)
	}
}
