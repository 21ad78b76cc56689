package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Directions a metric can improve in.
const (
	lower   = "lower"
	higher  = "higher"
	closer1 = "closer to 1" // the objective is |value − 1|
)

// metricDef names one metric, its unit and the bound by which it may worsen
// before a change counts as a regression. This table is the only place a
// bound lives: -compare applies it and BENCHMARK.json repeats it (a test
// holds the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is a share of the baseline median unless Abs is set, in which
	// case it is an absolute amount in Unit. Exact metrics must repeat bit
	// for bit (simulated quantities and counts made by the program). A metric
	// with neither a bound nor Exact is reported and not judged.
	Bound float64
	Abs   bool
	Exact bool
	Doc   string
}

// judged reports whether -compare gives the metric a verdict.
func (d metricDef) judged() bool { return d.Exact || d.Bound > 0 }

// bounded reports whether the metric has the kind of bound BENCHMARK.json can
// state for an end-to-end metric: a share of the parent's median.
func (d metricDef) bounded() bool { return d.Bound > 0 && !d.Abs }

// endToEnd lists the ten user-visible metrics every workload reports from
// its untraced pass. Host time and simulated time are never mixed in one
// metric: modeled_* and paper_* are simulated, the rest are host. The bounds
// are what the 2-core reference box can hold from one session to the next
// (README, "Measured run-to-run spread"): the box drifts by 20–30 % for
// minutes at a time, so the timed metrics get a quarter, and the two that
// cannot hold even that are reported without a bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25,
		Doc: "workload start → ready for the first warm-up op (median of the set-ups a pass performs)"},
	{Name: "op_ms_p50", Unit: "ms", Better: lower, Bound: 0.25,
		Doc: "median op latency (open loop: from the due time)"},
	{Name: "op_ms_p95", Unit: "ms", Better: lower,
		Doc: "95th percentile op latency; the sample count is printed beside it. No bound: on toolflow-lenet-f1 it sits between two modes and spreads over 100 %"},
	{Name: "op_ms_mean", Unit: "ms", Better: lower,
		Doc: "mean op latency — what the per-layer self times must sum to. No bound: on serve-fleet-mid one stall of the box moves it by a third"},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25,
		Doc: "correct ops per second of timed window (fabric: ×16 = img/s; open loop: goodput)"},
	{Name: "failed_share", Unit: "ratio", Better: lower, Bound: 0.001, Abs: true,
		Doc: "(errors + refusals + timeouts + wrong outputs) ÷ ops attempted"},
	{Name: "modeled_cycles_per_img", Unit: "cycles", Better: lower, Exact: true,
		Doc: "Build.Performance().BottleneckCycles of the accelerator the workload built (simulated)"},
	{Name: "modeled_gflops", Unit: "GFLOPS", Better: higher, Exact: true,
		Doc: "Build.Performance().GFLOPS of the same build (simulated)"},
	{Name: "paper_gflops_ratio", Unit: "ratio", Better: closer1, Exact: true,
		Doc: "Table 1 GFLOPS of the workload's net ÷ the paper's figure (simulated)"},
	{Name: "host_allocs_per_op", Unit: "count", Better: lower, Bound: 0.05,
		Doc: "runtime.MemStats.Mallocs delta ÷ ops over the timed window"},
}

// contractMetrics are the metrics BENCHMARK.json names. Its end-to-end list
// holds the end-to-end metrics bounded by a share of the median; the others —
// failed_share (it reads 0, and the contract's own attempted/failed carry
// it), the three simulated metrics (they repeat exactly, which a relative
// spread cannot express) and the two unbounded timings — follow the per-layer
// metrics in its per-layer list.
func contractMetrics(traced bool) []metricDef {
	var defs []metricDef
	if traced {
		defs = append(defs, perLayer...)
	}
	for _, d := range endToEnd {
		if d.bounded() != traced {
			defs = append(defs, d)
		}
	}
	return defs
}

// lenetLayers are the PE-level layers of LeNet as the fabric trace names
// them (relu1 and prob are fused into ip1 and ip2).
var lenetLayers = []string{"conv1", "pool1", "conv2", "pool2", "ip1", "ip2"}

// convAlgos are the per-layer convolution algorithms the probe compares.
var convAlgos = []string{"direct", "im2col_gemm", "winograd_f23"}

// perLayer lists the metrics of the traced pass, one layer (repo module) per
// prefix. A metric whose layer is not on a workload's path reads 0 there.
// Exact marks counts that must stay identical under a host-only change.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := func(name, doc string) metricDef { return metricDef{Name: name, Unit: "ms", Better: lower, Doc: doc} }
	count := func(name, doc string) metricDef { return metricDef{Name: name, Unit: "count", Better: lower, Doc: doc} }
	exact := func(name, unit, doc string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: lower, Exact: true, Doc: doc}
	}
	defs := []metricDef{
		ms("caffe.parse_ms", "ParsePrototxt + ParseCaffeModel + MergeWeights"),
		ms("condorir.lower_ms", "FromCaffe + Validate + BuildNN"),
		ms("condorir.json_parse_ms", "TC1 JSON + weights file through FromJSON + ReadWeights (probe)"),
		ms("onnx.parse_ms", "LeNet ONNX through Parse + ToNetwork (probe)"),
		ms("dse.explore_ms", "dse.Explore"),
		exact("dse.moves", "count", "accepted exploration moves"),
		ms("dataflow.buildspec_ms", "dataflow.BuildSpec"),
		ms("hls.planmemory_ms", "hls.PlanMemory"),
		exact("hls.lut_pct", "%", "Build.Report utilisation (Table 1 beside it in the README)"),
		exact("hls.ff_pct", "%", "Build.Report utilisation"),
		exact("hls.dsp_pct", "%", "Build.Report utilisation"),
		exact("hls.bram_pct", "%", "Build.Report utilisation"),
		ms("verify.lint_ms", "verify.LintConfig"),
		exact("verify.diagnostics", "count", "diagnostics LintConfig returned"),
		ms("bitstream.package_ms", "PackageXO + XOCC + ReadXclbin"),
		exact("bitstream.xclbin_bytes", "bytes", "size of the packaged xclbin"),
		ms("condor.build_ms", "Framework.BuildAccelerator as a whole"),
		ms("condor.unattributed_ms", "op mean − Σ stage means − aws.*; must stay < 10 % of the op"),
		ms("aws.deploy_ms", "Framework.DeployCloud"),
		ms("aws.infer_ms", "CloudDeployment.Infer"),
		ms("aws.terminate_ms", "CloudDeployment.Terminate"),
		count("aws.api_calls", "HTTP attempts per op (Client.Stats().Requests); varies with AFI polls"),
		count("aws.retries", "retried attempts per op"),
		exact("perf.latency_ms_modeled", "ms", "Build.Performance().LatencyMs (simulated)"),
		exact("power.total_w", "W", "Build.Performance().PowerW (simulated)"),
		ms("sdaccel.program_ms", "NewDevice + LoadXclbin + LoadWeights (probe at set-up)"),
		ms("sdaccel.write_ms", "CreateContext + CreateBuffer + EnqueueWrite"),
		ms("sdaccel.finish_ms", "EnqueueKernel + EnqueueRead + Finish"),
		ms("sdaccel.read_ms", "unpacking the read buffer into output tensors"),
		ms("sdaccel.overhead_ms", "finish_ms − dataflow.session_batch_ms"),
		exact("sdaccel.kernel_launches", "count", "Device.Counters().Kernels delta ÷ ops"),
		ms("dataflow.session_batch_ms", "resident Session.RunBatch of the workload's batch (probe)"),
		ms("dataflow.run_batch1_ms", "Accelerator.Run of one image (probe)"),
		exact("dataflow.macs_per_img", "count", "RunStats.TotalMACs ÷ images"),
		exact("dataflow.bottleneck_cycles_per_img", "cycles", "RunStats.BottleneckCycles"),
		{Name: "dataflow.sim_tax_x", Unit: "ratio", Better: higher,
			Doc: "nn.ref_ms_per_img ÷ fabric ms per image (1 = as fast as the reference engine)"},
	}
	for _, l := range lenetLayers {
		defs = append(defs,
			metricDef{Name: "dataflow.layer." + l + ".host_us_per_img", Unit: "us", Better: lower,
				Doc: "wall time of the layer's trace spans ÷ images (includes FIFO waits)"},
			exact("dataflow.layer."+l+".cycles_per_img", "cycles", "modeled cycles of the same spans ÷ images"),
		)
	}
	for _, a := range convAlgos {
		defs = append(defs, metricDef{Name: "dataflow.algo." + a + ".us_per_img", Unit: "us", Better: lower,
			Doc: "one 3×3/stride-1 conv layer in the workload's dtype (probe)"})
	}
	defs = append(defs,
		exact("fifo.words_per_img", "count", "Σ RunStats.Streams pushes ÷ images"),
		count("fifo.bursts_per_img", "Σ push bursts ÷ images (chunking follows free space, so it varies a little)"),
		count("fifo.max_occupancy", "largest stream high-water mark (scheduling dependent)"),
		metricDef{Name: "fifo.burst_ns_per_word", Unit: "ns", Better: lower,
			Doc: "1 producer / 1 consumer PushSlice/PopInto of one image frame (probe)"},
		ms("nn.ref_ms_per_img", "Network.Predict on the workload's images — the correctness oracle"),
		ms("quant.quantize_weights_ms", "quant.QuantizeWeights (probe at int8 set-up)"),
		count("client.sent", "requests the generator sent in the timed window"),
		ms("client.late_ms_mean", "how late the generator sent on average; part of every op's latency"),
		ms("client.late_ms_p95", "how late the generator sent, 95th percentile"),
		ms("client.late_ms_max", "how late the generator sent, worst case"),
		ms("client.http_self_ms", "client span − outermost server span"),
		ms("client.op_ms_p99", "99th percentile op latency; reported only when ten samples lie beyond it (≥ 1000 ops)"),
		ms("fleet.router_self_ms", "router-handler span − node-handler span"),
		count("fleet.retries", "Router.Stats().Retries delta"),
		count("fleet.shed", "shed requests, both classes"),
		count("fleet.rejected", "429s from the router"),
		metricDef{Name: "fleet.node_share_max", Unit: "ratio", Better: lower, Doc: "largest node's share of forwarded requests"},
		ms("serve.handler_ms", "node handler span (decode + queue + window + backend + encode)"),
		ms("serve.wait_self_ms", "handler span − backend.req_ms"),
		ms("serve.admit_to_reply_ms_p50", "Server.Stats().TotalMsP50"),
		metricDef{Name: "serve.batch_size_mean", Unit: "count", Better: higher, Doc: "images ÷ batches over the window"},
		count("serve.batches", "batches dispatched over the window"),
		count("serve.rejected", "admission rejections over the window"),
		count("serve.expired", "requests expired in queue over the window"),
		ms("backend.infer_ms", "wrapped serve.Backend.Infer, mean per batch"),
		ms("backend.req_ms", "Σ batch span × batch size ÷ requests"),
		metricDef{Name: "backend.busy_share", Unit: "ratio", Better: lower, Doc: "Σ batch spans ÷ (wall × backends)"},
		metricDef{Name: "process.bytes_per_op", Unit: "bytes", Better: lower, Doc: "MemStats.TotalAlloc delta ÷ ops"},
		ms("process.gc_pause_ms_total", "MemStats.PauseTotalNs delta over the window"),
		metricDef{Name: "process.peak_rss_mb", Unit: "MB", Better: lower, Doc: "VmHWM from /proc/self/status"},
		metricDef{Name: "bench.trace_overhead_share", Unit: "ratio", Better: lower,
			Doc: "(traced − untraced op_ms_mean) ÷ untraced"},
	)
	return defs
}

// value is one measured metric. Samples is how many observations stand
// behind a timing (0 for counts and simulated quantities).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet maps metric name to its measured value.
type metricSet map[string]value

func (m metricSet) set(def []metricDef, name string, v float64, samples int) {
	for i := range def {
		if def[i].Name == name {
			m[name] = value{Value: v, Unit: def[i].Unit, Samples: samples}
			return
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is not defined", name))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice, 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The small slack keeps p·n products such as 99.9 % of 10000 from rounding
// up past their exact value.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// samplesBeyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// reportablePercentiles are the tail percentiles the benchmark will print.
var reportablePercentiles = []float64{50, 90, 95, 99, 99.9}

// highestSupported returns the highest reportable percentile that still has
// at least ten samples beyond it (0 when even the median does not).
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range reportablePercentiles {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// millis converts a duration to fractional milliseconds.
func millis(d time.Duration) float64 { return d.Seconds() * 1e3 }
