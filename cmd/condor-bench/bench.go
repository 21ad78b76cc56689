package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"condor"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/models"
	"condor/internal/perf"
	"condor/internal/quant"
	"condor/internal/tensor"
)

// algoFabric instantiates a single-conv fabric with seeded random weights,
// the given convolution algorithm and word width (the workload of the
// algo bench legs; mirrors algoBenchFabric in bench_test.go).
func algoFabric(input condorir.InputShape, layer condorir.Layer, algo string, bits int) (*dataflow.Accelerator, error) {
	layer.Algorithm = algo
	ir := &condorir.Network{
		Name: "algobench", Board: "aws-f1-vu9p", FrequencyMHz: 100,
		Input: input, Layers: []condorir.Layer{layer},
	}
	w := tensor.New(layer.NumOutput, input.Channels, layer.KernelSize, layer.KernelSize)
	w.FillRandom(rand.New(rand.NewSource(23)), 0.5)
	ws := condorir.NewWeightSet()
	ws.Put(layer.Name, condorir.EntryWeights, w)
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		return nil, err
	}
	spec.WordBits = bits
	return dataflow.Instantiate(spec, ws)
}

// benchResult is one machine-readable microbenchmark row. The names mirror
// the go-test benchmarks in bench_test.go so CI dashboards can join the two
// sources.
type benchResult struct {
	Name    string  `json:"name"`
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
	ImgPerS float64 `json:"img_per_s"`
	// ModelSpeedupX, on batch-streaming legs, is the modeled steady-state
	// speedup of this leg over its batch=1 counterpart on this host
	// (perf.HostSteadyStateSpeedup). benchdiff divides the measured speedup
	// by it to derive the pipeline_efficiency rows the utilization gate
	// tracks.
	ModelSpeedupX float64 `json:"model_speedup_x,omitempty"`
}

// timeIt runs fn (imagesPerOp images of work per call) until it has both a
// minimum iteration count and a minimum elapsed time, then reports the mean
// of the best of two measurement passes — a run that lost the CPU to a noisy
// neighbour mid-pass gets a second chance, which keeps the committed
// baselines (and the regression gate diffing against them) representative of
// the code rather than of scheduler luck.
func timeIt(name string, imagesPerOp int, fn func() error) (benchResult, error) {
	const (
		minIters = 3
		minTime  = 200 * time.Millisecond
		maxIters = 10000
		passes   = 2
	)
	// Warm-up: first call pays one-time costs (weight staging, allocator).
	if err := fn(); err != nil {
		return benchResult{}, fmt.Errorf("%s: %w", name, err)
	}
	best := benchResult{Name: name}
	for pass := 0; pass < passes; pass++ {
		iters := 0
		start := time.Now()
		for {
			if err := fn(); err != nil {
				return benchResult{}, fmt.Errorf("%s: %w", name, err)
			}
			iters++
			if iters >= maxIters || (iters >= minIters && time.Since(start) >= minTime) {
				break
			}
		}
		nsPerOp := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if best.NsPerOp == 0 || nsPerOp < best.NsPerOp {
			best.Iters, best.NsPerOp = iters, nsPerOp
			best.ImgPerS = float64(imagesPerOp) * 1e9 / nsPerOp
		}
	}
	return best, nil
}

// benchJSON runs the fabric-throughput microbenchmarks (the same workloads
// as BenchmarkFabricThroughput, BenchmarkReferenceEngine and
// BenchmarkBaselineGEMMEngine) and writes the results as JSON, for CI
// artifact upload and regression tracking. For every entry of cus a
// batch-16 leg runs on a compute-unit pool of that size
// (BenchmarkFabricThroughput/cus=N), measuring the replication speedup on
// hosts with enough cores — on a single-core host the legs coincide. The
// fabric legs repeat per requested dtype: float32 keeps the bare leg names
// (baseline continuity), every other precision gets a /dtype=<p> suffix so
// benchdiff keys the rows apart and can gate the int8 speedup itself. Each
// dtype additionally runs a batch=1/batch=8 streaming pair (drain-between-
// images vs one resident session), with the modeled steady-state speedup
// recorded on the batch=8 row for the pipeline-efficiency gate.
func benchJSON(path string, cus []int, dtypes []quant.Precision) error {
	ir, ws, err := models.TC1()
	if err != nil {
		return err
	}
	net, err := ir.BuildNN(ws)
	if err != nil {
		return err
	}
	fabricImgs := models.USPSImages(1, 5)
	poolImgs := models.USPSImages(16, 5)
	streamImgs := models.USPSImages(8, 5)
	refImg := models.USPSImages(1, 6)[0]
	gemmImg := models.USPSImages(1, 3)[0]

	type benchCase struct {
		name   string
		images int
		model  float64 // modeled steady-state speedup (batch-streaming legs)
		fn     func() error
	}
	cases := []benchCase{
		{name: "BenchmarkReferenceEngine", images: 1, fn: func() error {
			_, err := net.Predict(refImg)
			return err
		}},
		{name: "BenchmarkBaselineGEMMEngine/direct", images: 1, fn: func() error {
			_, err := net.Predict(gemmImg)
			return err
		}},
		{name: "BenchmarkBaselineGEMMEngine/gemm", images: 1, fn: func() error {
			var out *tensor.Tensor
			out, err := net.GEMMForward(gemmImg)
			_ = out
			return err
		}},
	}
	for _, p := range dtypes {
		bld, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws, Precision: p})
		if err != nil {
			return err
		}
		dep, err := bld.Fabric()
		if err != nil {
			return err
		}
		suffix := ""
		if p != quant.Float32 {
			suffix = "/dtype=" + p.String()
		}
		cases = append(cases, benchCase{name: "BenchmarkFabricThroughput" + suffix, images: 1, fn: func() error {
			_, _, err := dep.Run(fabricImgs)
			return err
		}})
		for _, n := range cus {
			pool := dataflow.NewCUPool(dep, n)
			cases = append(cases, benchCase{name: fmt.Sprintf("BenchmarkFabricThroughput/cus=%d%s", n, suffix), images: len(poolImgs), fn: func() error {
				// One-shot: the resident sessions close after the batch, so
				// the leg pays the fabric's spawn/join as a cold deployment does.
				_, _, err := pool.RunBatch(poolImgs)
				if cerr := pool.Close(); err == nil {
					err = cerr
				}
				return err
			}})
		}
		// The batch-streaming pair: batch=1 drains between images
		// (image-at-a-time Run), batch=8 streams the same eight images
		// back-to-back through a resident session. The batch=8 row carries
		// the modeled steady-state speedup for this host so benchdiff can
		// derive the measured/modeled pipeline_efficiency ratio.
		cases = append(cases, benchCase{name: "BenchmarkFabricThroughput/batch=1" + suffix, images: len(streamImgs), fn: func() error {
			for i := range streamImgs {
				if _, _, err := dep.Run(streamImgs[i : i+1]); err != nil {
					return err
				}
			}
			return nil
		}})
		sess := dep.OpenSession()
		defer sess.Close()
		cases = append(cases, benchCase{
			name:   "BenchmarkFabricThroughput/batch=8" + suffix,
			images: len(streamImgs),
			model:  perf.HostSteadyStateSpeedup(perf.Stages(dep.Spec), len(streamImgs), runtime.GOMAXPROCS(0)),
			fn: func() error {
				_, _, err := sess.RunBatch(streamImgs)
				return err
			},
		})
	}

	// Per-layer convolution-kernel legs: two LeNet-class single-conv
	// workloads (a 5×5 layer, and a 3×3/stride-1 layer where Winograd F(2,3)
	// also qualifies), per requested dtype. im2col_gemm has no leg: on both
	// datapaths it runs the direct kernel, the algorithm being a model
	// decision. benchdiff derives winograd_speedup_x against the algo=direct
	// sibling and gates it.
	algoWorkloads := []struct {
		name  string
		input condorir.InputShape
		layer condorir.Layer
		algos []string
	}{
		{"conv5", condorir.InputShape{Channels: 20, Height: 12, Width: 12},
			condorir.Layer{Name: "conv", Type: "Convolution", KernelSize: 5, Stride: 1, NumOutput: 50, PEGroup: -1},
			[]string{"direct"}},
		{"conv3", condorir.InputShape{Channels: 16, Height: 16, Width: 16},
			condorir.Layer{Name: "conv", Type: "Convolution", KernelSize: 3, Stride: 1, Pad: 1, NumOutput: 16, PEGroup: -1},
			[]string{"direct", "winograd_f23"}},
	}
	algoShort := map[string]string{"direct": "direct", "winograd_f23": "winograd"}
	for _, wl := range algoWorkloads {
		rng := rand.New(rand.NewSource(19))
		imgs := make([]*tensor.Tensor, 16)
		for i := range imgs {
			img := tensor.New(wl.input.Channels, wl.input.Height, wl.input.Width)
			img.FillRandom(rng, 1)
			imgs[i] = img
		}
		for _, p := range dtypes {
			suffix := ""
			if p != quant.Float32 {
				suffix = "/dtype=" + p.String()
			}
			for _, algo := range wl.algos {
				acc, err := algoFabric(wl.input, wl.layer, algo, p.Bits())
				if err != nil {
					return err
				}
				cases = append(cases, benchCase{
					name:   fmt.Sprintf("BenchmarkFabricThroughput/%s/algo=%s%s", wl.name, algoShort[algo], suffix),
					images: len(imgs),
					fn: func() error {
						_, _, err := acc.Run(imgs)
						return err
					},
				})
			}
		}
	}

	var results []benchResult
	fmt.Println("Fabric microbenchmarks")
	for _, c := range cases {
		r, err := timeIt(c.name, c.images, c.fn)
		if err != nil {
			return err
		}
		r.ModelSpeedupX = c.model
		results = append(results, r)
		fmt.Printf("%-38s %10d iters %14.0f ns/op %12.1f img/s\n", r.Name, r.Iters, r.NsPerOp, r.ImgPerS)
	}

	blob, err := json.MarshalIndent(struct {
		Benchmarks []benchResult `json:"benchmarks"`
	}{results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}
