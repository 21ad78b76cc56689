// Command condor-sim runs inference batches on a built Condor accelerator
// using the functional dataflow fabric, reporting both the host-measured
// simulation time and the modeled device time (cycles at the achieved
// clock). It accepts a compiled xclbin plus weights, or one of the built-in
// paper models.
//
// Usage:
//
//	condor-sim -model tc1 -batch 16
//	condor-sim -xclbin build/LeNet.xclbin -weights build/LeNet.cndw -batch 8
//	condor-sim -model lenet -sweep          # Figure 5-style batch sweep
//
// Observability: -trace writes the run as Chrome trace-event JSON (load it
// in chrome://tracing or Perfetto; one lane per fabric element, one span per
// layer per image), -metrics dumps the run's counters in Prometheus text
// form, and -check-trace validates a previously written trace file:
//
//	condor-sim -model tc1 -batch 4 -trace trace.json -metrics -
//	condor-sim -check-trace trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"condor"
	"condor/internal/bitstream"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/models"
	"condor/internal/nn"
	"condor/internal/obs"
	"condor/internal/perf"
	"condor/internal/tensor"
)

func main() {
	model := flag.String("model", "", "built-in model: tc1 | lenet")
	xclbinPath := flag.String("xclbin", "", "compiled kernel binary")
	weightsPath := flag.String("weights", "", "Condor weights file (.cndw)")
	batch := flag.Int("batch", 8, "images per batch")
	sweep := flag.Bool("sweep", false, "run the Figure 5 batch-size sweep instead of one batch")
	seed := flag.Int64("seed", 42, "input generator seed")
	tracePath := flag.String("trace", "", "write the run as Chrome trace-event JSON to this file")
	metricsPath := flag.String("metrics", "", `write the run's counters in Prometheus text form to this file ("-" for stdout)`)
	checkTrace := flag.String("check-trace", "", "validate a trace-event JSON file and exit")
	flag.Parse()

	if *checkTrace != "" {
		if err := runCheckTrace(*checkTrace); err != nil {
			fmt.Fprintln(os.Stderr, "condor-sim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*model, *xclbinPath, *weightsPath, *batch, *sweep, *seed, *tracePath, *metricsPath); err != nil {
		fmt.Fprintln(os.Stderr, "condor-sim:", err)
		os.Exit(1)
	}
}

// runCheckTrace validates that path holds loadable trace-event JSON — the CI
// gate behind `condor-sim -trace` output.
func runCheckTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n, err := obs.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid trace-event JSON, %d events\n", path, n)
	return nil
}

func run(model, xclbinPath, weightsPath string, batch int, sweep bool, seed int64, tracePath, metricsPath string) error {
	var spec *dataflow.Spec
	var ws *condorir.WeightSet
	var freq float64

	switch {
	case model != "":
		var ir *condorir.Network
		var err error
		switch model {
		case "tc1":
			ir, ws, err = models.TC1()
		case "lenet":
			ir, ws, err = models.LeNet()
		default:
			return fmt.Errorf("unknown model %q (want tc1 or lenet)", model)
		}
		if err != nil {
			return err
		}
		b, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws})
		if err != nil {
			return err
		}
		spec, freq = b.Spec, b.Meta.AchievedMHz
	case xclbinPath != "":
		data, err := os.ReadFile(xclbinPath)
		if err != nil {
			return err
		}
		x, err := bitstream.ReadXclbin(data)
		if err != nil {
			return err
		}
		if weightsPath == "" {
			return fmt.Errorf("-weights is required with -xclbin")
		}
		wf, err := os.Open(weightsPath)
		if err != nil {
			return err
		}
		ws, err = condorir.ReadWeights(wf)
		wf.Close()
		if err != nil {
			return err
		}
		spec, freq = x.Spec, x.Meta.AchievedMHz
	default:
		return fmt.Errorf("provide -model or -xclbin/-weights")
	}

	acc, err := dataflow.Instantiate(spec, ws)
	if err != nil {
		return err
	}
	stages := perf.Stages(spec)
	fmt.Printf("%s: %d PEs, input %s, %0.f MHz\n", spec.Name, len(spec.PEs), spec.Input, freq)

	if sweep {
		if tracePath != "" || metricsPath != "" {
			return fmt.Errorf("-trace/-metrics apply to a single batch run, not -sweep")
		}
		fmt.Printf("%8s %16s %16s\n", "batch", "device ms/img", "device img/s")
		for _, bsz := range []int{1, 2, 4, 8, 16, 32, 64} {
			cycles := perf.BatchCyclesClosedForm(stages, bsz)
			mean := perf.CyclesToMs(cycles, freq) / float64(bsz)
			fmt.Printf("%8d %16.4f %16.1f\n", bsz, mean, 1000/mean)
		}
		return nil
	}

	var tr *obs.Trace
	if tracePath != "" {
		tr = obs.NewTrace()
		acc.SetTracer(tr)
	}
	imgs := makeInputs(spec.Input, batch, seed)
	start := time.Now()
	outs, stats, err := acc.Run(imgs)
	if err != nil {
		return err
	}
	host := time.Since(start)
	cycles := perf.BatchCyclesClosedForm(stages, batch)
	deviceMs := perf.CyclesToMs(cycles, freq)
	fmt.Printf("batch %d: host sim %v, modeled device %.4f ms (%.4f ms/image)\n",
		batch, host.Round(time.Millisecond), deviceMs, deviceMs/float64(batch))
	fmt.Printf("DDR traffic: %.1f KiB read, %.1f KiB written\n",
		float64(stats.DRAM.BytesRead)/1024, float64(stats.DRAM.BytesWritten)/1024)
	for i, out := range outs {
		if i >= 4 {
			fmt.Printf("  ... %d more\n", len(outs)-4)
			break
		}
		fmt.Printf("  image %d -> class %d\n", i, out.ArgMax())
	}

	if tr != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		err = tr.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		spans := 0
		for _, tk := range tr.Tracks() {
			spans += len(tk.Spans())
		}
		fmt.Printf("trace: %d spans across %d tracks -> %s (open in chrome://tracing or Perfetto)\n",
			spans, len(tr.Tracks()), tracePath)
	}
	if metricsPath != "" {
		reg := obs.NewRegistry()
		stats.Publish(reg)
		text := reg.TextSnapshot()
		if metricsPath == "-" {
			fmt.Print(text)
		} else if err := os.WriteFile(metricsPath, []byte(text), 0o644); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}

func makeInputs(shape nn.Shape, batch int, seed int64) []*tensor.Tensor {
	switch {
	case shape.Height == 16 && shape.Channels == 1:
		return models.USPSImages(batch, seed)
	case shape.Height == 28 && shape.Channels == 1:
		return models.MNISTImages(batch, seed)
	default:
		out := make([]*tensor.Tensor, batch)
		for i := range out {
			t := tensor.New(shape.Channels, shape.Height, shape.Width)
			for j := range t.Data() {
				t.Data()[j] = float32((i+j)%7) / 7
			}
			out[i] = t
		}
		return out
	}
}
