// Fixed-point quantization: build LeNet at float32 and int8, compare
// resources, power and weight footprint, measure the accuracy drift against
// the float reference, and co-simulate the quantized fabric — the
// bandwidth/resource optimisation of the paper's related work (Qiu et al.,
// FPGA'16) applied to the Condor flow.
//
//	go run ./examples/quantized
package main

import (
	"fmt"
	"log"

	"condor"
	"condor/internal/models"
	"condor/internal/quant"
)

func main() {
	fmt.Printf("%-8s %8s %8s %8s %10s %12s %10s\n",
		"format", "DSP%", "BRAM%", "W", "weights", "max drift", "top-1")

	var ref *condor.Build
	for _, p := range []quant.Precision{quant.Float32, quant.Int8} {
		ir, ws, err := models.LeNet()
		if err != nil {
			log.Fatal(err)
		}
		b, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws, Precision: p})
		if err != nil {
			log.Fatal(err)
		}
		if p == quant.Float32 {
			ref = b
		}

		// Accuracy drift vs. the float32 reference over a sample batch.
		drift := quant.Drift{Top1Agreement: 1}
		if p != quant.Float32 {
			refNet, err := ref.IR.BuildNN(ref.Weights)
			if err != nil {
				log.Fatal(err)
			}
			qNet, err := b.IR.BuildNN(b.Weights)
			if err != nil {
				log.Fatal(err)
			}
			drift, err = quant.EvaluateDrift(refNet, qNet, models.MNISTImages(16, 5))
			if err != nil {
				log.Fatal(err)
			}
		}

		s, err := b.Performance()
		if err != nil {
			log.Fatal(err)
		}
		weightsKiB := float64(0)
		if b.QuantReport != nil {
			weightsKiB = float64(b.QuantReport.BytesAfter) / 1024
		} else {
			wb, err := b.WeightsBytes()
			if err != nil {
				log.Fatal(err)
			}
			weightsKiB = float64(len(wb)) / 1024
		}
		fmt.Printf("%-8s %7.2f%% %7.2f%% %8.2f %8.0fKiB %12.2g %9.0f%%\n",
			p, 100*b.Report.Utilization.DSP, 100*b.Report.Utilization.BRAM,
			s.PowerW, weightsKiB, drift.MaxAbsDiff, 100*drift.Top1Agreement)

		// Co-simulate the fabric against its own (quantized) reference:
		// float32 must be exact, int8 within its quantization error bound.
		rep, err := b.Cosim(3, 7, 0)
		if err != nil {
			log.Fatal(err)
		}
		if !rep.Passed() {
			log.Fatalf("%s co-simulation failed: %+v", p, rep)
		}
	}
	fmt.Println("\nall precisions passed co-simulation against the reference engine")
}
