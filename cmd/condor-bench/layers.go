package main

import (
	"fmt"

	"condor"
	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/obs"
	"condor/internal/perf"
	"condor/internal/quant"
	"condor/internal/tensor"
)

// layerTable prints the per-layer span rollup of the named model's fabric,
// float32 and then int8: where the modeled cycles go, element by element,
// and what each layer costs the host. Each precision runs one untraced
// warm-up batch, then the traced batch the table reports, so host µs/img and
// GMAC/s (the layer's modeled MACs per host second) describe warm kernels.
// The same data exports as Chrome trace-event JSON via `condor-sim -trace`.
func layerTable(model string, batch int) error {
	var (
		ir   *condorir.Network
		ws   *condorir.WeightSet
		imgs []*tensor.Tensor
		err  error
	)
	switch model {
	case "tc1":
		ir, ws, err = models.TC1()
		imgs = models.USPSImages(batch, 5)
	case "lenet":
		ir, ws, err = models.LeNet()
		imgs = models.MNISTImages(batch, 5)
	default:
		return fmt.Errorf("unknown model %q (want tc1 or lenet)", model)
	}
	if err != nil {
		return err
	}
	var bld *condor.Build
	for _, p := range []quant.Precision{quant.Float32, quant.Int8} {
		if bld, err = condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws, Precision: p}); err != nil {
			return err
		}
		if err := printLayers(bld, model, p, imgs); err != nil {
			return err
		}
	}

	// Per-layer convolution-algorithm comparison: modeled cycles of each
	// conv layer under every applicable algorithm, with the deployed choice.
	rows := perf.ConvAlgoTable(bld.Spec)
	if len(rows) > 0 {
		fmt.Printf("Per-layer convolution algorithms (modeled cycles/img per mode, int8)\n")
		fmt.Printf("%-10s %-10s %-12s %12s %12s %12s\n",
			"pe", "layer", "selected", "direct", "im2col_gemm", "winograd")
		for _, r := range rows {
			wg := "-"
			if r.WinogradCycles > 0 {
				wg = fmt.Sprintf("%d", r.WinogradCycles)
			}
			fmt.Printf("%-10s %-10s %-12s %12d %12d %12s\n",
				r.PE, r.Layer, string(r.Selected), r.DirectCycles, r.GEMMCycles, wg)
		}
		fmt.Println()
	}
	return nil
}

// printLayers runs a warm-up batch and then a traced one on the build's
// fabric and prints the traced batch's per-layer rows.
func printLayers(bld *condor.Build, model string, p quant.Precision, imgs []*tensor.Tensor) error {
	acc, err := bld.Fabric()
	if err != nil {
		return err
	}
	if _, _, err := acc.Run(imgs); err != nil {
		return err
	}
	tr := obs.NewTrace()
	acc.SetTracer(tr)
	_, stats, err := acc.Run(imgs)
	if err != nil {
		return err
	}
	macs := make(map[string]int64) // modeled MACs per image, by layer
	for i := range bld.Spec.PEs {
		pe := bld.Spec.PEs[i]
		for li := range pe.Layers {
			macs[pe.Layers[li].Name] = pe.Schedule(li, bld.Spec.WordBits).MACs
		}
	}
	var totalCycles int64
	for i := range stats.PEs {
		totalCycles += stats.PEs[i].Cycles
	}
	batch := int64(len(imgs))
	fmt.Printf("Per-layer fabric profile — %s %s, batch %d after a warm-up batch (modeled cycles; host time per image)\n", model, p, batch)
	fmt.Printf("%-10s %-10s %6s %14s %12s %12s %8s %7s\n",
		"track", "span", "count", "cycles/img", "words/img", "host µs/img", "GMAC/s", "share")
	for _, row := range tr.Summary() {
		share := ""
		if row.Cycles > 0 && totalCycles > 0 {
			share = fmt.Sprintf("%6.1f%%", 100*float64(row.Cycles)/float64(totalCycles))
		}
		us := row.Wall.Seconds() * 1e6 / float64(batch)
		gmacs := "-"
		if m := macs[row.Name]; m > 0 && us > 0 {
			gmacs = fmt.Sprintf("%.2f", float64(m)/(us*1e3))
		}
		fmt.Printf("%-10s %-10s %6d %14d %12d %12.1f %8s %7s\n",
			row.Track, row.Name, row.Count, row.Cycles/batch, row.Words/batch, us, gmacs, share)
	}
	fmt.Printf("total: %d modeled PE cycles across %d images (%d cycles/img bottleneck)\n\n",
		totalCycles, stats.Images, stats.BottleneckCycles())
	return nil
}
