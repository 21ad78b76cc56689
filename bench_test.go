package condor

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section 4). Each benchmark times the work that produces the
// result (functional fabric execution for the deployment rows, the
// closed-form pipeline batch time for the batch curves, the full
// explore+estimate pass for the improved-methodology columns) and attaches
// the paper-facing quantities as custom metrics, so `go test -bench . ` emits
// the same rows the paper reports. Paper-vs-measured numbers are recorded
// in EXPERIMENTS.md; cmd/condor-bench prints them as text tables.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"condor/internal/aws"
	"condor/internal/baseline"
	"condor/internal/caffe"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/models"
	"condor/internal/perf"
	"condor/internal/quant"
	"condor/internal/serve"
	"condor/internal/tensor"
)

// benchBuild builds a deployment once per benchmark.
func benchBuild(b *testing.B, ir *condorir.Network, ws *condorir.WeightSet) *Build {
	b.Helper()
	bld, err := New().BuildAccelerator(Input{IR: ir, Weights: ws})
	if err != nil {
		b.Fatal(err)
	}
	return bld
}

// reportTable1 attaches one Table 1 row as benchmark metrics.
func reportTable1(b *testing.B, row Table1Row) {
	b.ReportMetric(row.GFLOPS, "GFLOPS")
	b.ReportMetric(row.GFLOPSPerWatt, "GFLOPS/W")
	b.ReportMetric(row.LUTPct, "LUT%")
	b.ReportMetric(row.FFPct, "FF%")
	b.ReportMetric(row.DSPPct, "DSP%")
	b.ReportMetric(row.BRAMPct, "BRAM%")
	b.ReportMetric(row.AchievedMHz, "MHz")
}

// BenchmarkTable1_TC1 regenerates the TC1 row of Table 1: the deployment
// configuration (sequential feature maps, one PE per layer, 100 MHz on the
// F1 VU9P) is built, the benchmark body executes inference batches on the
// functional fabric, and the model-derived table quantities are attached as
// metrics.
func BenchmarkTable1_TC1(b *testing.B) {
	ir, ws, err := models.TC1()
	if err != nil {
		b.Fatal(err)
	}
	row, bld, err := table1Case("TC1", ir, ws)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := bld.Fabric()
	if err != nil {
		b.Fatal(err)
	}
	imgs := models.USPSImages(8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dep.Run(imgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportTable1(b, row)
}

// BenchmarkTable1_LeNet regenerates the LeNet row of Table 1 (via the Caffe
// frontend, 180 MHz).
func BenchmarkTable1_LeNet(b *testing.B) {
	ir, ws, err := models.LeNet()
	if err != nil {
		b.Fatal(err)
	}
	row, bld, err := table1Case("LeNet", ir, ws)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := bld.Fabric()
	if err != nil {
		b.Fatal(err)
	}
	imgs := models.MNISTImages(2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dep.Run(imgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportTable1(b, row)
}

// BenchmarkTable2 regenerates the improved-methodology columns of Table 2:
// the timed body is the full design-space exploration plus synthesis
// estimate that produces each column.
func BenchmarkTable2(b *testing.B) {
	cases := []struct {
		name string
		ir   func() (*condorir.Network, error)
	}{
		{"TC1", func() (*condorir.Network, error) { ir, _, err := models.TC1(); return ir, err }},
		{"LeNet", func() (*condorir.Network, error) { ir, _, err := models.LeNet(); return ir, err }},
		{"VGG16_features", func() (*condorir.Network, error) { return models.VGG16Features(), nil }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ir, err := tc.ir()
			if err != nil {
				b.Fatal(err)
			}
			var row Table2Row
			for i := 0; i < b.N; i++ {
				row, err = table2Case(tc.name, ir)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.GFLOPS, "GFLOPS")
			b.ReportMetric(row.DSEGFLOPS, "dse-GFLOPS")
		})
	}
}

// BenchmarkFigure5 regenerates the Figure 5 series: for each batch size the
// timed body is the accelerator pipeline's closed-form batch time, and the
// mean time per image is attached as a metric.
func BenchmarkFigure5(b *testing.B) {
	nets := []struct {
		name string
		load func() (*condorir.Network, *condorir.WeightSet, error)
	}{
		{"TC1", models.TC1},
		{"LeNet", models.LeNet},
	}
	for _, nc := range nets {
		ir, ws, err := nc.load()
		if err != nil {
			b.Fatal(err)
		}
		bld := benchBuild(b, ir, ws)
		stages := perf.Stages(bld.Spec)
		for _, batch := range DefaultFigure5Batches {
			b.Run(fmt.Sprintf("%s/batch=%d", nc.name, batch), func(b *testing.B) {
				var total int64
				for i := 0; i < b.N; i++ {
					total = perf.BatchCyclesClosedForm(stages, batch)
				}
				mean := perf.CyclesToMs(total, bld.Meta.AchievedMHz) / float64(batch)
				b.ReportMetric(mean, "ms/image")
			})
		}
	}
}

// BenchmarkAblationFusion compares the default unfolded mapping (one PE per
// layer, full intra-layer parallelism) against fusing all features-
// extraction layers onto a single PE — the resource/throughput trade-off of
// Section 3.2.
func BenchmarkAblationFusion(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*condorir.Network)
	}{
		{"unfolded", func(*condorir.Network) {}},
		{"fused_features", func(ir *condorir.Network) {
			for i := range ir.Layers {
				kind, _ := ir.Layers[i].Kind()
				if kind.IsFeatureExtraction() || kind.IsActivation() {
					ir.Layers[i].PEGroup = 0
				}
			}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			ir, ws, err := models.TC1()
			if err != nil {
				b.Fatal(err)
			}
			v.mut(ir)
			bld := benchBuild(b, ir, ws)
			stages := perf.Stages(bld.Spec)
			var total int64
			for i := 0; i < b.N; i++ {
				total = perf.BatchCyclesClosedForm(stages, 32)
			}
			b.ReportMetric(perf.CyclesToMs(total, bld.Meta.AchievedMHz)/32, "ms/image")
			b.ReportMetric(float64(len(bld.Spec.PEs)), "PEs")
			b.ReportMetric(100*bld.Report.Utilization.LUT, "LUT%")
		})
	}
}

// BenchmarkAblationPortParallelism sweeps the feature-map port parallelism
// of LeNet's conv2 (the sequential-configuration bottleneck), the knob the
// improved methodology exploits.
func BenchmarkAblationPortParallelism(b *testing.B) {
	for _, out := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("out=%d", out), func(b *testing.B) {
			ir, ws, err := models.LeNet()
			if err != nil {
				b.Fatal(err)
			}
			for i := range ir.Layers {
				if ir.Layers[i].Name == "conv2" {
					ir.Layers[i].Parallelism = condorir.Parallelism{In: 1, Out: out}
				}
			}
			bld := benchBuild(b, ir, ws)
			stages := perf.Stages(bld.Spec)
			for i := 0; i < b.N; i++ {
				perf.BatchCyclesClosedForm(stages, 16)
			}
			// The knob targets the features pipeline; report its sustained
			// throughput (the ip1 FC stage caps the whole-network figure).
			featFLOPs, err := bld.IR.FeatureFLOPs()
			if err != nil {
				b.Fatal(err)
			}
			featGF := perf.SteadyStateGFLOPS(featFLOPs,
				perf.Bottleneck(perf.FeatureStages(bld.Spec)), bld.Meta.AchievedMHz)
			b.ReportMetric(featGF, "feat-GFLOPS")
			b.ReportMetric(100*bld.Report.Utilization.DSP, "DSP%")
		})
	}
}

// BenchmarkAblationStencilBuffer quantifies the on-chip saving of the
// non-uniform reuse-buffer partitioning against buffering the whole input
// frame, per features-extraction PE of LeNet.
func BenchmarkAblationStencilBuffer(b *testing.B) {
	ir, ws, err := models.LeNet()
	if err != nil {
		b.Fatal(err)
	}
	bld := benchBuild(b, ir, ws)
	var stencilWords, frameWords int64
	for i := 0; i < b.N; i++ {
		stencilWords, frameWords = 0, 0
		for _, pe := range bld.Spec.PEs {
			if pe.Chain == nil {
				continue
			}
			stencilWords += int64(pe.Chain.BufferWords())
			for _, l := range pe.Layers {
				frameWords += int64(l.PaddedHeight() * l.PaddedWidth())
			}
		}
	}
	b.ReportMetric(float64(stencilWords), "stencil-words")
	b.ReportMetric(float64(frameWords), "frame-words")
	b.ReportMetric(float64(frameWords)/float64(stencilWords), "saving-x")
}

// BenchmarkAblationQuantization compares the float32 fabric against the int8
// fixed-point variant (the bandwidth/resource optimisation of the related
// work): resource footprint, power and weight-payload size.
func BenchmarkAblationQuantization(b *testing.B) {
	for _, p := range []quant.Precision{quant.Float32, quant.Int8} {
		b.Run(p.String(), func(b *testing.B) {
			var bld *Build
			for i := 0; i < b.N; i++ {
				in := Input{}
				ir, ws, err := models.LeNet()
				if err != nil {
					b.Fatal(err)
				}
				in.IR, in.Weights, in.Precision = ir, ws, p
				bld, err = New().BuildAccelerator(in)
				if err != nil {
					b.Fatal(err)
				}
			}
			s, err := bld.Performance()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*bld.Report.Utilization.DSP, "DSP%")
			b.ReportMetric(100*bld.Report.Utilization.BRAM, "BRAM%")
			b.ReportMetric(s.PowerW, "W")
			if bld.QuantReport != nil {
				b.ReportMetric(float64(bld.QuantReport.BytesAfter)/1024, "weights-KiB")
			} else {
				wb, err := bld.WeightsBytes()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(wb))/1024, "weights-KiB")
			}
		})
	}
}

// BenchmarkFabricThroughput measures the raw functional-simulator
// throughput (host-side), useful for tracking simulator regressions. The
// cus=N sub-benchmarks run a 16-image batch on a local deployment whose
// device replicates the kernel into N compute units (benchCULegs) and report
// img/s — the replication speedup appears on hosts with enough cores; on a
// single-core host all legs coincide. The dtype=int8
// legs run the same workloads on the packed int8 datapath (4 lanes per
// FIFO word, int32 accumulators); its host speedup over the bare float32
// legs is a gated baseline figure.
func BenchmarkFabricThroughput(b *testing.B) {
	ir, ws, err := models.TC1()
	if err != nil {
		b.Fatal(err)
	}
	bld := benchBuild(b, ir, ws)
	dep, err := bld.Fabric()
	if err != nil {
		b.Fatal(err)
	}
	imgs := models.USPSImages(1, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dep.Run(imgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	batch := models.USPSImages(16, 5)
	benchCULegs(b, Input{IR: ir, Weights: ws}, batch, "")
	benchStreamingLegs(b, dep, "")

	bld8, err := New().BuildAccelerator(Input{IR: ir, Weights: ws, Precision: quant.Int8})
	if err != nil {
		b.Fatal(err)
	}
	dep8, err := bld8.Fabric()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dtype=int8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := dep8.Run(imgs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "img/s")
	})
	benchCULegs(b, Input{IR: ir, Weights: ws, Precision: quant.Int8}, batch, "/dtype=int8")
	benchStreamingLegs(b, dep8, "/dtype=int8")
	benchAlgoLegs(b)
}

// BenchmarkLeNetSession is the benchmark module's two fabric workloads
// reduced to the fabric, the shape `make profile-fabric` profiles: LeNet from
// its seed-1 caffemodel on the local board, one warm session running 16-image
// RunBatches — float32 with the plain build's direct convolutions
// (fabric-lenet-f32), int8 with the explorer on (fabric-lenet-int8-gemm).
func BenchmarkLeNetSession(b *testing.B) {
	blob, err := models.LeNetCaffeModel(1)
	if err != nil {
		b.Fatal(err)
	}
	batch := models.MNISTImages(16, 1)
	for _, c := range []struct {
		name      string
		precision quant.Precision
		dse       bool
	}{{"float32", quant.Float32, false}, {"int8", quant.Int8, true}} {
		b.Run(c.name, func(b *testing.B) {
			bld, err := New().BuildAccelerator(Input{Prototxt: models.LeNetPrototxt, CaffeModel: blob,
				Board: localBoard, FrequencyMHz: models.LeNetFreqMHz, Precision: c.precision, RunDSE: c.dse})
			if err != nil {
				b.Fatal(err)
			}
			acc, err := bld.Fabric()
			if err != nil {
				b.Fatal(err)
			}
			s := acc.OpenSession()
			defer s.Close()
			if _, _, err := s.RunBatch(batch); err != nil { // warm the session
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.RunBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "img/s")
		})
	}
}

// benchCULegs runs the cus=N legs the way serving drives a replicated card:
// the input built for a local board and deployed with its kernel in N
// compute units, and N concurrent Infer callers per iteration, each on a
// contiguous batch/N shard of the batch.
func benchCULegs(b *testing.B, in Input, batch []*tensor.Tensor, suffix string) {
	in.Board = localBoard
	bld, err := New().BuildAccelerator(in)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cus=%d%s", n, suffix), func(b *testing.B) {
			dep, err := New().DeployLocalCUs(bld, n)
			if err != nil {
				b.Fatal(err)
			}
			defer dep.Close()
			per := len(batch) / n
			errs := make([]error, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, _, errs[c] = dep.Infer(batch[c*per : (c+1)*per])
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "img/s")
		})
	}
}

// benchAlgoLegs measures the host kernels behind the per-layer convolution
// algorithms on two LeNet-class single-conv workloads: conv5 (a 5×5 layer in
// LeNet-conv2's class) and conv3 (a 3×3/stride-1 layer where Winograd F(2,3)
// also qualifies). im2col_gemm has no leg: on both datapaths it runs the
// direct kernel, the algorithm being a model decision. The conv3 legs'
// Winograd-over-direct ratio is the host-side view of that algorithm's win.
func benchAlgoLegs(b *testing.B) {
	cases := []struct {
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
	short := map[string]string{"direct": "direct", "winograd_f23": "winograd"}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(19))
		imgs := make([]*tensor.Tensor, 16)
		for i := range imgs {
			img := tensor.New(tc.input.Channels, tc.input.Height, tc.input.Width)
			img.FillRandom(rng, 1)
			imgs[i] = img
		}
		for _, bits := range []int{32, 8} {
			suffix := ""
			if bits == 8 {
				suffix = "/dtype=int8"
			}
			for _, algo := range tc.algos {
				b.Run(fmt.Sprintf("%s/algo=%s%s", tc.name, short[algo], suffix), func(b *testing.B) {
					acc := algoBenchFabric(b, tc.input, tc.layer, algo, bits)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := acc.Run(imgs); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(len(imgs))*float64(b.N)/b.Elapsed().Seconds(), "img/s")
				})
			}
		}
	}
}

// algoBenchFabric instantiates a single-conv fabric with seeded random
// weights, the given convolution algorithm, and word width.
func algoBenchFabric(b *testing.B, input condorir.InputShape, layer condorir.Layer, algo string, bits int) *dataflow.Accelerator {
	b.Helper()
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
		b.Fatal(err)
	}
	spec.WordBits = bits
	acc, err := dataflow.Instantiate(spec, ws)
	if err != nil {
		b.Fatal(err)
	}
	return acc
}

// benchStreamingLegs contrasts the two batch execution regimes on one
// fabric: batch=1 drains between images (one Run per image, today's
// image-at-a-time deployment) while batch=8 streams all eight back-to-back
// through a resident session at the pipeline's steady-state initiation
// interval — the continuous-streaming speedup of a resident session.
func benchStreamingLegs(b *testing.B, dep *dataflow.Accelerator, suffix string) {
	stream := models.USPSImages(8, 5)
	b.Run("batch=1"+suffix, func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range stream {
				if _, _, err := dep.Run(stream[j : j+1]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "img/s")
	})
	b.Run("batch=8"+suffix, func(b *testing.B) {
		s := dep.OpenSession()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.RunBatch(stream); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "img/s")
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkReferenceEngine measures the golden CPU engine for comparison
// with the fabric simulator.
func BenchmarkReferenceEngine(b *testing.B) {
	ir, ws, err := models.TC1()
	if err != nil {
		b.Fatal(err)
	}
	net, err := ir.BuildNN(ws)
	if err != nil {
		b.Fatal(err)
	}
	img := models.USPSImages(1, 6)[0]
	b.ResetTimer()
	var out *tensor.Tensor
	for i := 0; i < b.N; i++ {
		out, err = net.Predict(img)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = out
}

// BenchmarkRoofline characterises the Table 1 deployments with the roofline
// model: operational intensity, compute/bandwidth roofs, and the sustained
// throughput of the pipeline model.
func BenchmarkRoofline(b *testing.B) {
	nets := []struct {
		name string
		load func() (*condorir.Network, *condorir.WeightSet, error)
	}{
		{"TC1", models.TC1},
		{"LeNet", models.LeNet},
	}
	for _, nc := range nets {
		b.Run(nc.name, func(b *testing.B) {
			ir, ws, err := nc.load()
			if err != nil {
				b.Fatal(err)
			}
			bld := benchBuild(b, ir, ws)
			var r perf.Roofline
			for i := 0; i < b.N; i++ {
				r, err = RooflineOf(bld)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.OperationalIntensity, "FLOP/byte")
			b.ReportMetric(r.PeakGFLOPS, "peak-GFLOPS")
			b.ReportMetric(r.AttainableGFLOPS, "roof-GFLOPS")
			b.ReportMetric(r.SustainedGFLOPS, "sustained-GFLOPS")
			if r.BandwidthBound() {
				b.Fatalf("Table 1 configurations must not be bandwidth-bound: %+v", r)
			}
		})
	}
}

// BenchmarkCloudSlotScaling shards a fixed batch across 1, 2, 4 and 8 FPGA
// slots of an f1.16xlarge and reports the modeled wall kernel time — the
// scale-out headroom the F1 cloud offering adds over a single device.
func BenchmarkCloudSlotScaling(b *testing.B) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ir, ws, err := models.TC1()
	if err != nil {
		b.Fatal(err)
	}
	bld, err := New().BuildAccelerator(Input{IR: ir, Weights: ws})
	if err != nil {
		b.Fatal(err)
	}
	for _, slots := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			dep, err := New().DeployCloud(bld, CloudConfig{
				Endpoint: ts.URL, License: aws.LicenseFromAMI(),
				Bucket:       fmt.Sprintf("condor-scale-%d-%d", slots, b.N),
				InstanceType: "f1.16xlarge", Slots: slots,
			})
			if err != nil {
				b.Fatal(err)
			}
			imgs := models.USPSImages(32, 13)
			var ms float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ms, err = dep.InferSharded(imgs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(ms, "kernel-ms")
			b.ReportMetric(32/ms*1000, "img/s")
		})
	}
}

// BenchmarkCloudSlotWarm times a warm LeNet batch of 1 and 16 images on an
// F1 slot against the same batch on a local board, float32 and int8. The
// cloud leg is one round trip to the slot's host program, whose fabric keeps
// the weights it loaded; the local leg is LocalDeployment.Infer. The gap
// between the legs is the HTTP exchange.
func BenchmarkCloudSlotWarm(b *testing.B) {
	for _, prec := range []quant.Precision{quant.Float32, quant.Int8} {
		cloud, local := warmSlotLeNet(b, prec)
		for _, n := range []int{1, 16} {
			imgs := models.MNISTImages(n, 7)
			for _, leg := range []struct {
				name string
				dep  serve.Backend
			}{{"cloud", cloud}, {"local", local}} {
				b.Run(fmt.Sprintf("%s/batch=%d/%s", prec, n, leg.name), func(b *testing.B) {
					if _, _, err := leg.dep.Infer(imgs); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := leg.dep.Infer(imgs); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkToolflowLeNetF1 is the benchmark module's toolflow-lenet-f1 op in
// process: LeNet from its caffemodel through BuildAccelerator (DSE on),
// DeployCloud, one Infer and Terminate. Its B/op is the number the weight
// path's copy budget (TestWeightPathCopyBudget) guards; -memprofile shows
// which hop allocated it.
func BenchmarkToolflowLeNetF1(b *testing.B) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Quiesce()
	in := toolflowInput(b)
	cfg := CloudConfig{Endpoint: ts.URL, License: aws.LicenseFromAMI(), Bucket: "condor-toolflow"}
	img := models.MNISTImages(1, 1)
	f := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld, err := f.BuildAccelerator(in)
		if err != nil {
			b.Fatal(err)
		}
		dep, err := f.DeployCloud(bld, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := dep.Infer(img); err != nil {
			b.Fatal(err)
		}
		if err := dep.Terminate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightPath times, one hop at a time, what the toolflow op does
// with LeNet's 1.72 MB of weights (DESIGN.md, "The weight path"): the
// caffemodel decode, the CNDW encode DeployCloud uploads, the S3 PUT of it to
// an in-process cloud and the ParseWeights decode every cloud inference
// runs. MB/s is over each hop's input.
func BenchmarkWeightPath(b *testing.B) {
	in := toolflowInput(b)
	trained, err := caffe.ParseCaffeModel(in.CaffeModel)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := caffe.ParsePrototxt(in.Prototxt)
	if err != nil {
		b.Fatal(err)
	}
	topo.MergeWeights(trained)
	_, ws, err := condorir.FromCaffe(topo, in.Board, in.FrequencyMHz)
	if err != nil {
		b.Fatal(err)
	}
	parts, err := ws.Parts()
	if err != nil {
		b.Fatal(err)
	}
	file := bytes.Join(parts, nil)
	srv := aws.NewServer(aws.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Quiesce()
	client := aws.NewClient(ts.URL, "")
	if err := client.CreateBucket("condor-hops"); err != nil {
		b.Fatal(err)
	}
	for _, hop := range []struct {
		name  string
		bytes int
		run   func() error
	}{
		{"caffemodel-decode", len(in.CaffeModel), func() error { _, err := caffe.ParseCaffeModel(in.CaffeModel); return err }},
		{"encode", len(file), func() error { _, err := ws.Parts(); return err }},
		{"s3-put", len(file), func() error { return client.PutObject("condor-hops", "w.cndw", parts...) }},
		{"parse-weights", len(file), func() error { _, err := condorir.ParseWeights(file); return err }},
	} {
		b.Run(hop.name, func(b *testing.B) {
			b.SetBytes(int64(hop.bytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := hop.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtraAlexNetFeatures extends the Table 2 experiment to AlexNet
// (features stage, same 2-port preliminary configuration).
func BenchmarkExtraAlexNetFeatures(b *testing.B) {
	ir := models.AlexNetFeatures()
	var row Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = table2Case("AlexNet", ir)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.GFLOPS, "GFLOPS")
}

// BenchmarkBaselineComparison pits the Condor dataflow accelerator against
// the GEMM/systolic baseline class (Caffeine et al.) at a matched MAC
// budget — the architectural comparison motivating the paper's design. The
// dataflow fabric pipelines layers and streams every input element once;
// the systolic array runs layers sequentially with blocked-GEMM re-reads.
func BenchmarkBaselineComparison(b *testing.B) {
	nets := []struct {
		name string
		load func() (*condorir.Network, *condorir.WeightSet, error)
	}{
		{"TC1", models.TC1},
		{"LeNet", models.LeNet},
	}
	for _, nc := range nets {
		b.Run(nc.name, func(b *testing.B) {
			ir, ws, err := nc.load()
			if err != nil {
				b.Fatal(err)
			}
			bld := benchBuild(b, ir, ws)
			lanes := 0
			for i := range bld.Report.PEs {
				lanes += bld.Report.PEs[i].MACs
			}
			// Baseline array with (at least) the same MAC budget.
			side := 1
			for side*side < lanes {
				side++
			}
			var rep *baseline.Report
			for i := 0; i < b.N; i++ {
				rep, err = baseline.Evaluate(ir, baseline.Config{
					Rows: side, Cols: side, FreqMHz: bld.Meta.AchievedMHz,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			s, err := bld.Performance()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(s.GFLOPS, "condor-GFLOPS")
			b.ReportMetric(rep.GFLOPS, "systolic-GFLOPS")
			b.ReportMetric(100*rep.Efficiency, "systolic-eff%")
			b.ReportMetric(float64(bld.Spec.DDRBytesPerImage())/1024, "condor-KiB/img")
			b.ReportMetric(float64(rep.DDRBytes)/1024, "systolic-KiB/img")
		})
	}
}
