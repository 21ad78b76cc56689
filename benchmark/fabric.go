package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"condor"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/fifo"
	"condor/internal/models"
	"condor/internal/nn"
	"condor/internal/quant"
	"condor/internal/sdaccel"
	"condor/internal/tensor"
)

// fabricBoard is the on-premise board of the local workloads (F1 devices
// refuse a direct bitstream load).
const fabricBoard = "ku115"

// fabricBatch is the fixed batch one fabric op infers.
const fabricBatch = 16

// fabric is LocalDeployment.Infer of a fixed 16-image MNIST batch on a LeNet
// build with one compute unit: the dataflow executor and the FIFOs are
// nearly all of the op, and serve, fleet and the frontends do nothing.
type fabric struct {
	rec       *recorder
	precision quant.Precision
	b         *condor.Build
	dep       *condor.LocalDeployment
	batch     []*tensor.Tensor
	want      []*tensor.Tensor
	tol       float64
	net       *nn.Network
	readyDur  time.Duration
	refMs     float64
	kernels0  int64
}

// newFabric returns the constructor of a fabric workload at the given
// precision; dse selects between the direct convolutions of the plain build
// and the im2col+GEMM lowering the explorer picks.
func newFabric(precision quant.Precision, dse bool) func(context.Context, int64, *recorder) (instance, error) {
	return func(_ context.Context, seed int64, rec *recorder) (instance, error) {
		t0 := time.Now()
		blob, err := models.LeNetCaffeModel(seed)
		if err != nil {
			return nil, err
		}
		ir, ws, err := lowerCaffe(condor.Input{Prototxt: models.LeNetPrototxt, CaffeModel: blob,
			Board: fabricBoard, FrequencyMHz: models.LeNetFreqMHz})
		if err != nil {
			return nil, err
		}
		fw := condor.New()
		b, err := fw.BuildAccelerator(condor.Input{IR: ir, Weights: ws, Precision: precision, RunDSE: dse})
		if err != nil {
			return nil, err
		}
		dep, err := fw.DeployLocal(b)
		if err != nil {
			return nil, err
		}
		f := &fabric{rec: rec, precision: precision, b: b, dep: dep, batch: models.MNISTImages(fabricBatch, seed)}
		f.readyDur = time.Since(t0)

		// The oracle: the nn engine on the build's own weights. float32 is
		// held to the co-simulation tolerance (the fabric accumulates in a
		// different order than nn, so the last bits differ); int8 to the
		// bound the run's recorded quantization scales imply.
		if f.net, err = b.IR.BuildNN(b.Weights); err != nil {
			return nil, err
		}
		t1 := time.Now()
		for _, img := range f.batch {
			out, err := f.net.Predict(img)
			if err != nil {
				return nil, err
			}
			f.want = append(f.want, out)
		}
		f.refMs = millis(time.Since(t1)) / fabricBatch
		f.tol = condor.DefaultCosimTolerance
		if precision == quant.Int8 {
			acc, err := b.Fabric()
			if err != nil {
				return nil, err
			}
			_, stats, err := acc.Run(f.batch)
			if err != nil {
				return nil, err
			}
			if qb := stats.QuantErrorBound(); qb > f.tol {
				f.tol = qb
			}
		}
		return f, nil
	}
}

func (f *fabric) ready() time.Duration { return f.readyDur }
func (f *fabric) built() *condor.Build { return f.b }
func (f *fabric) windowStart()         { f.kernels0 = f.dep.Device.Counters().Kernels }
func (f *fabric) close() error         { return nil }

func (f *fabric) op(_ context.Context, i int) outcome {
	var outs []*tensor.Tensor
	var err error
	if f.rec == nil {
		outs, _, err = f.dep.Infer(f.batch)
	} else {
		outs, err = f.tracedInfer(i)
	}
	if err != nil {
		return opError
	}
	if len(outs) != len(f.want) {
		return opWrong
	}
	for k := range outs {
		if !checkOutput(outs[k], f.want[k], f.tol) {
			return opWrong
		}
	}
	return opOK
}

// tracedInfer performs LocalDeployment.Infer's own call sequence against the
// deployment's device, timing each step from outside.
func (f *fabric) tracedInfer(i int) ([]*tensor.Tensor, error) {
	spec := f.b.Spec
	inVol := spec.Input.Volume()
	outShape := spec.OutputShape()
	outVol := outShape.Volume()

	t0 := time.Now()
	ctx := sdaccel.CreateContext(f.dep.Device)
	in := ctx.CreateBuffer(len(f.batch) * inVol)
	out := ctx.CreateBuffer(len(f.batch) * outVol)
	flat := make([]float32, 0, len(f.batch)*inVol)
	for _, img := range f.batch {
		flat = append(flat, img.Data()...)
	}
	ctx.EnqueueWrite(in, flat)
	t1 := time.Now()
	ctx.EnqueueKernel(in, out, len(f.batch))
	results := make([]float32, len(f.batch)*outVol)
	ctx.EnqueueRead(out, results)
	_, err := ctx.Finish()
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(f.batch))
	for k := range outs {
		t := tensor.New(outShape.Channels, outShape.Height, outShape.Width)
		copy(t.Data(), results[k*outVol:(k+1)*outVol])
		outs[k] = t
	}
	t3 := time.Now()
	f.rec.add("fabric.op", "", i, t0, t3, len(f.batch))
	f.rec.add("sdaccel.write", "fabric.op", i, t0, t1, 0)
	f.rec.add("sdaccel.finish", "fabric.op", i, t1, t2, 0)
	f.rec.add("sdaccel.read", "fabric.op", i, t2, t3, 0)
	return outs, nil
}

func (f *fabric) layers(win *window, m metricSet) error {
	write, finish, read := win.spans["sdaccel.write"], win.spans["sdaccel.finish"], win.spans["sdaccel.read"]
	m.set(perLayer, "sdaccel.write_ms", write.meanMs(), write.Count)
	m.set(perLayer, "sdaccel.finish_ms", finish.meanMs(), finish.Count)
	m.set(perLayer, "sdaccel.read_ms", read.meanMs(), read.Count)
	// The identity is held against what the caller waited for (the op
	// records), not against the span the three parts were cut from: a step
	// of the op left untimed, or a lost span, opens a gap between the two.
	if parts := write.meanMs() + finish.meanMs() + read.meanMs(); parts < 0.95*win.opMeanMs || parts > 1.05*win.opMeanMs {
		return fmt.Errorf("budget identity failed: sdaccel write+finish+read %.3f ms is not within 5%% of the %.3f ms op mean", parts, win.opMeanMs)
	}
	m.set(perLayer, "sdaccel.kernel_launches", float64(f.dep.Device.Counters().Kernels-f.kernels0)/float64(len(win.recs)), 0)
	m.set(perLayer, "nn.ref_ms_per_img", f.refMs, fabricBatch)
	m.set(perLayer, "dse.moves", float64(len(f.b.DSETrace)), 0)
	m.set(perLayer, "bitstream.xclbin_bytes", float64(len(f.b.Xclbin)), 0)
	setUtilization(m, f.b)

	// sdaccel.program_ms: what DeployLocal does to the card, on a spare one.
	programMs, n, err := timeMedian(3, win.probe, func() error {
		dev, err := sdaccel.NewDevice("benchmark-probe", f.b.Meta.Board)
		if err != nil {
			return err
		}
		if err := dev.LoadXclbin(f.b.Xclbin); err != nil {
			return err
		}
		return dev.LoadWeights(f.b.Weights)
	})
	if err != nil {
		return fmt.Errorf("sdaccel program probe: %w", err)
	}
	m.set(perLayer, "sdaccel.program_ms", programMs, n)

	if f.precision != quant.Float32 {
		// The probe quantizes the build's weights once more; they are
		// already on the grid, which costs the same passes over the data.
		quantMs, n, err := timeMedian(3, win.probe, func() error {
			_, _, err := quant.QuantizeWeights(f.b.Weights, f.precision)
			return err
		})
		if err != nil {
			return fmt.Errorf("quant probe: %w", err)
		}
		m.set(perLayer, "quant.quantize_weights_ms", quantMs, n)
	}

	if err := f.fabricProbes(m, win.probe, finish.meanMs()); err != nil {
		return err
	}
	if err := algoProbes(m, win.probe, f.precision); err != nil {
		return err
	}
	nsPerWord, n := fifoProbe(f.b.Spec.Input.Volume(), f.b.Spec.InterPEFIFODepth)
	m.set(perLayer, "fifo.burst_ns_per_word", nsPerWord, n)
	return nil
}

// fabricProbes measures the dataflow layer directly on a fabric of its own:
// the resident-session batch, the one-image run, the exact work counts and
// the per-layer spans Build.TraceFabric returns.
func (f *fabric) fabricProbes(m metricSet, probe time.Duration, finishMs float64) error {
	acc, err := f.b.Fabric()
	if err != nil {
		return err
	}
	sess := acc.OpenSession()
	sessionMs, n, err := timeMedian(5, probe, func() error {
		_, _, err := sess.RunBatch(f.batch)
		return err
	})
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("session probe: %w", err)
	}
	m.set(perLayer, "dataflow.session_batch_ms", sessionMs, n)
	m.set(perLayer, "sdaccel.overhead_ms", finishMs-sessionMs, 0)
	m.set(perLayer, "dataflow.sim_tax_x", f.refMs/(sessionMs/fabricBatch), 0)

	oneMs, n, err := timeMedian(5, probe, func() error {
		_, _, err := acc.Run(f.batch[:1])
		return err
	})
	if err != nil {
		return fmt.Errorf("batch-1 probe: %w", err)
	}
	m.set(perLayer, "dataflow.run_batch1_ms", oneMs, n)

	tr, stats, err := f.b.TraceFabric(f.batch)
	if err != nil {
		return fmt.Errorf("TraceFabric: %w", err)
	}
	images := float64(stats.Images)
	m.set(perLayer, "dataflow.macs_per_img", float64(stats.TotalMACs())/images, 0)
	m.set(perLayer, "dataflow.bottleneck_cycles_per_img", float64(stats.BottleneckCycles()), 0)
	var words, bursts, maxOcc int64
	for _, s := range stats.Streams {
		words += s.Pushes
		bursts += s.PushBursts
		if s.MaxOccupancy > maxOcc {
			maxOcc = s.MaxOccupancy
		}
	}
	m.set(perLayer, "fifo.words_per_img", float64(words)/images, 0)
	m.set(perLayer, "fifo.bursts_per_img", float64(bursts)/images, 0)
	m.set(perLayer, "fifo.max_occupancy", float64(maxOcc), 0)
	for _, row := range tr.Summary() {
		for _, l := range lenetLayers {
			if row.Name == l {
				m.set(perLayer, "dataflow.layer."+l+".host_us_per_img", row.Wall.Seconds()*1e6/images, int(row.Count))
				m.set(perLayer, "dataflow.layer."+l+".cycles_per_img", float64(row.Cycles)/images, 0)
			}
		}
	}
	return nil
}

// algoProbes times one 3×3/stride-1 convolution layer under each algorithm
// in the workload's dtype, as cmd/condor-bench's algo legs do. LeNet's
// convolutions are 5×5, so nothing end to end exercises Winograd; this keeps
// that path from regressing unseen.
func algoProbes(m metricSet, probe time.Duration, p quant.Precision) error {
	input := condorir.InputShape{Channels: 16, Height: 16, Width: 16}
	rng := rand.New(rand.NewSource(19))
	imgs := make([]*tensor.Tensor, fabricBatch)
	for i := range imgs {
		imgs[i] = tensor.New(input.Channels, input.Height, input.Width)
		imgs[i].FillRandom(rng, 1)
	}
	for _, algo := range convAlgos {
		layer := condorir.Layer{Name: "conv", Type: "Convolution", KernelSize: 3, Stride: 1, Pad: 1,
			NumOutput: 16, PEGroup: -1, Algorithm: algo}
		ir := &condorir.Network{Name: "algoprobe", Board: models.F1Board, FrequencyMHz: 100,
			Input: input, Layers: []condorir.Layer{layer}}
		w := tensor.New(layer.NumOutput, input.Channels, layer.KernelSize, layer.KernelSize)
		w.FillRandom(rand.New(rand.NewSource(23)), 0.5)
		ws := condorir.NewWeightSet()
		ws.Put(layer.Name, condorir.EntryWeights, w)
		spec, err := dataflow.BuildSpec(ir)
		if err != nil {
			return err
		}
		spec.WordBits = p.Bits()
		acc, err := dataflow.Instantiate(spec, ws)
		if err != nil {
			return err
		}
		batchMs, n, err := timeMedian(5, probe, func() error {
			_, _, err := acc.Run(imgs)
			return err
		})
		if err != nil {
			return fmt.Errorf("algo probe %s: %w", algo, err)
		}
		m.set(perLayer, "dataflow.algo."+algo+".us_per_img", batchMs*1e3/fabricBatch, n)
	}
	return nil
}

// fifoProbe streams image frames of the given size through one FIFO with one
// producer and one consumer, in the burst calls the fabric uses, and returns
// nanoseconds per word with the frame count.
func fifoProbe(frameWords, depth int) (float64, int) {
	const frames = 2000
	q := fifo.New("probe", depth)
	frame := make([]fifo.Word, frameWords)
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			q.PushSlice(frame)
		}
		q.Close()
	}()
	dst := make([]fifo.Word, frameWords)
	for q.PopInto(dst) == len(dst) {
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(frames*frameWords), frames
}
