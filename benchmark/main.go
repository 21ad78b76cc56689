// Command benchmark is the referee for the whole Condor toolflow: model file
// → F1 deploy → fabric → /infer. One command builds five named workloads
// in-process, runs each untraced for the end-to-end metrics and a second
// time traced for the per-layer metrics, checks every output against the
// independent nn reference engine, and prints every metric by name with its
// unit. It claims no gain; later performance and simplicity changes are
// measured with it. See README.md for the glossary and how to reproduce.
//
// Usage (from this directory):
//
//	go run .                               # all workloads, untraced then traced
//	go run . -duration 5s -out run.json    # shorter window, keep the results
//	go run . -compare A.json B.json        # apply each metric's own bound
//	go run . --workload serve-node-low --seed 3 --seconds 10 --trace 0
//
// The last form is the driver contract of BENCHMARK.json: one workload, one
// pass, and a single JSON object as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"condor/internal/quant"
)

// workloads are the five named workloads; later issues refer to them by
// these names. toolflow-lenet-f1 runs last: every deploy it makes leaves a
// terminated instance's programmed device behind in the simulated cloud
// (≈ 2 MB of weights and 11 goroutines per op, see README), and in a full
// run that must not weigh on the collector while the other four are measured.
var workloads = []*workload{
	{name: "fabric-lenet-f32", table: "LeNet", newInstance: newFabric(quant.Float32, false),
		why: "dataflow + fifo are nearly all of the op (float32, direct convolutions); serve, fleet and the frontends do nothing"},
	{name: "fabric-lenet-int8-gemm", table: "LeNet", newInstance: newFabric(quant.Int8, true),
		why: "the same layer used differently: packed int8 datapath and the im2col+GEMM schedule the explorer picks"},
	{name: "serve-node-low", table: "TC1", rate: 50, newInstance: newServing(false),
		why: "every request is alone, so the batch window and JSON/HTTP dominate and the fabric is a tenth of the op"},
	{name: "serve-fleet-mid", table: "TC1", rate: 300, newInstance: newServing(true),
		why: "adds the router hop and connection queueing at about 55 % generator utilisation; fleet work shows only here"},
	{name: "toolflow-lenet-f1", table: "LeNet", newInstance: newToolflow,
		why: "the paper's headline path: frontends, DSE, HLS, verify, packaging and the cloud deploy do the work, the fabric runs one image"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// environment is the box a result was measured on. -compare refuses to
// compare results whose environments differ.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	DurationS  float64 `json:"duration_s"`
	Seed       int64   `json:"seed"`
	Conns      int     `json:"connections"`
}

func currentEnvironment(seed int64, duration time.Duration) environment {
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), DurationS: duration.Seconds(), Seed: seed, Conns: conns,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit names the commit under test, "unknown" outside a git checkout.
func gitCommit(ctx context.Context) string {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       environment      `json:"environment"`
	Commit    string           `json:"commit"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult holds one workload's passes: -runs untraced passes (the
// end-to-end metrics; -compare takes their medians) and one traced pass.
type workloadResult struct {
	Name     string        `json:"name"`
	Loop     string        `json:"loop"`
	Untraced []*passResult `json:"untraced"`
	Traced   *passResult   `json:"traced"`
}

// defaults completes a pass configuration with the two values that are not
// flags; only the tests, on their short windows, use others. The warm-up is
// the unmeasured run-in before each timed window. setups is how many times an
// untraced pass sets the workload up, setup_s being their median: a set-up
// is 5–40 ms of mostly single-threaded work and any one can take twice that.
func defaults(seed int64, duration time.Duration) passConfig {
	return passConfig{seed: seed, duration: duration, warmup: 2 * time.Second, setups: 21}
}

func main() {
	var (
		name     = flag.String("workload", "", "driver contract: run only this workload and print one JSON object last")
		seed     = flag.Int64("seed", 1, "drives images, Poisson arrivals and generated weights")
		seconds  = flag.Float64("seconds", 0, "driver contract: length of the timed window in seconds (overrides -duration)")
		trace    = flag.Int("trace", 0, "driver contract: 0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
		duration = flag.Duration("duration", 15*time.Second, "timed window per workload and pass")
		runs     = flag.Int("runs", 1, "untraced passes per workload; -compare uses their median and spread")
		out      = flag.String("out", "", "write the results as JSON to this file")
		traceOut = flag.String("trace-out", "", "write the traced passes' spans as one Chrome trace to this file")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: A.json B.json")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *name != "":
		if *seconds > 0 {
			*duration = time.Duration(*seconds * float64(time.Second))
		}
		err = runContract(ctx, os.Stdout, *name, defaults(*seed, *duration), *trace != 0)
	default:
		err = runAll(ctx, os.Stdout, defaults(*seed, *duration), *runs, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runContract is the BENCHMARK.json driver contract: one workload, one pass,
// and the result object as the last line of standard output.
func runContract(ctx context.Context, w io.Writer, name string, cfg passConfig, traced bool) error {
	wl := findWorkload(name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var untracedMean float64
	if traced {
		// A short untraced pass first, so the traced pass can say what
		// tracing cost.
		short := cfg
		short.setups, short.duration = 1, cfg.duration/4
		res, _, err := runPass(ctx, wl, short)
		if err != nil {
			return err
		}
		untracedMean = res.EndToEnd["op_ms_mean"].Value
		// setup_s is an end-to-end metric; the traced pass sets up once.
		cfg.setups, cfg.traced = 1, true
	}
	res, _, err := runPass(ctx, wl, cfg)
	if err != nil {
		return err
	}
	if traced {
		setTraceOverhead(res, untracedMean)
	}
	printPass(w, wl, res)
	type contractValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, def := range contractMetrics(traced) {
		// A layer off this workload's path did no work: its metrics read 0.
		v, ok := res.EndToEnd[def.Name]
		if !ok {
			v = res.PerLayer[def.Name]
		}
		line.Metrics[def.Name] = contractValue{v.Value, def.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

func setTraceOverhead(traced *passResult, untracedMean float64) {
	if untracedMean > 0 {
		over := (traced.EndToEnd["op_ms_mean"].Value - untracedMean) / untracedMean
		traced.PerLayer.set(perLayer, "bench.trace_overhead_share", over, 0)
	}
}

// runAll is the full run: every workload one after another in one process,
// each on a fresh build and deployment, untraced then traced.
func runAll(ctx context.Context, w io.Writer, cfg passConfig, runs int, out, traceOut string) error {
	file := resultFile{Env: currentEnvironment(cfg.seed, cfg.duration), Commit: gitCommit(ctx)}
	fmt.Fprintf(w, "condor benchmark — commit %s\n", file.Commit)
	fmt.Fprintf(w, "box: %d cores (GOMAXPROCS %d), %s, %s; window %s after %s warm-up; seed %d; %d connections\n\n",
		file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.CPUModel, file.Env.GoVersion, cfg.duration, cfg.warmup, cfg.seed, conns)
	var recs []*recorder
	failed := 0
	for _, wl := range workloads {
		wr := workloadResult{Name: wl.name, Loop: wl.loop()}
		for r := 0; r < runs; r++ {
			pass := cfg
			pass.seed += int64(r)
			res, _, err := runPass(ctx, wl, pass)
			if err != nil {
				return err
			}
			wr.Untraced = append(wr.Untraced, res)
			failed += res.Failed
			printPass(w, wl, res)
			runtime.GC()
		}
		pass := cfg
		pass.setups, pass.traced = 1, true
		res, rec, err := runPass(ctx, wl, pass)
		if err != nil {
			return err
		}
		setTraceOverhead(res, wr.Untraced[0].EndToEnd["op_ms_mean"].Value)
		wr.Traced = res
		failed += res.Failed
		recs = append(recs, rec)
		printPass(w, wl, res)
		file.Workloads = append(file.Workloads, wr)
		runtime.GC()
	}
	if out != "" {
		if err := writeJSONFile(out, file); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", out)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := writeChromeTrace(f, recs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", traceOut)
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed or returned a wrong output", failed)
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printPass prints one pass: every metric by name with its unit, and the
// sample count behind each timing.
func printPass(w io.Writer, wl *workload, res *passResult) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s [%s] — %s pass: %d ops attempted", wl.name, wl.loop(), kind, res.Attempted)
	for o, n := range res.Outcomes {
		if n > 0 {
			fmt.Fprintf(w, ", %d %s", n, outcomeNames[o])
		}
	}
	fmt.Fprintln(w)
	printMetrics(w, endToEnd, res.EndToEnd)
	if n := res.EndToEnd["op_ms_p95"].Samples; samplesBeyond(n, 95) < 10 {
		fmt.Fprintf(w, "   note: only %d samples lie beyond p95 (n=%d); the highest percentile this window supports is p%g\n",
			samplesBeyond(n, 95), n, highestSupported(n))
	}
	if res.Traced {
		fmt.Fprintln(w, "   per layer:")
		printMetrics(w, perLayer, res.PerLayer)
	}
	fmt.Fprintln(w)
}

func printMetrics(w io.Writer, defs []metricDef, m metricSet) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		samples := ""
		if v.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Fprintf(w, "   %-42s %16.6g %-7s%s\n", d.Name, v.Value, v.Unit, samples)
	}
}
