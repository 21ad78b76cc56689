package condor

import (
	"fmt"
	"io"
)

// This file renders the paper's evaluation beside the paper's own numbers.
// condor-bench prints with these functions, and the paper-vs-measured blocks
// of README.md and EXPERIMENTS.md are their output verbatim (TestPaperTables
// fails on any difference and rewrites the blocks under -update), so a model
// change that moves a paper number shows up as a doc diff.

// table1Columns are Table 1's cells in the paper's column order.
var table1Columns = []struct {
	Name string
	Of   func(Table1Row) float64
}{
	{"LUT %", func(r Table1Row) float64 { return r.LUTPct }},
	{"FF %", func(r Table1Row) float64 { return r.FFPct }},
	{"DSP %", func(r Table1Row) float64 { return r.DSPPct }},
	{"BRAM %", func(r Table1Row) float64 { return r.BRAMPct }},
	{"GFLOPS", func(r Table1Row) float64 { return r.GFLOPS }},
	{"GFLOPS/W", func(r Table1Row) float64 { return r.GFLOPSPerWatt }},
	{"MHz", func(r Table1Row) float64 { return r.AchievedMHz }},
}

// WriteTable1 prints Table 1 one cell per line and network: measured, the
// paper's value and measured/paper. rows are in Table1Paper's order.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1 — AWS F1 deployment results")
	fmt.Fprintf(w, "%-10s", "")
	for _, r := range rows {
		fmt.Fprintf(w, " %26s", r.Name)
	}
	fmt.Fprintf(w, "\n%-10s", "")
	for range rows {
		fmt.Fprintf(w, " %9s %9s %6s", "measured", "paper", "ratio")
	}
	fmt.Fprintln(w)
	for _, c := range table1Columns {
		fmt.Fprintf(w, "%-10s", c.Name)
		for i, r := range rows {
			m, p := c.Of(r), c.Of(Table1Paper[i])
			fmt.Fprintf(w, " %9.2f %9.2f %6.2f", m, p, m/p)
		}
		fmt.Fprintln(w)
	}
}

// WriteTable2 prints Table 2: the paper's configuration measured against
// the paper, then this repository's DSE over every convolution algorithm on
// the same budget, and the VGG-16 classifier verdict (gate is
// VerifyVGGClassifierGate's result).
func WriteTable2(w io.Writer, rows []Table2Row, gate error) {
	fmt.Fprintf(w, "Table 2 — features-extraction GFLOPS: the paper's configuration (direct convolution, ≤%d ports)\n", Table2PortCap)
	fmt.Fprintln(w, "and this repo's DSE on the same budget with every convolution algorithm; ratios are over the paper")
	fmt.Fprintf(w, "%-8s %9s %9s %6s %18s %6s\n", "", "measured", "paper", "ratio", "this repo's DSE", "ratio")
	for i, r := range rows {
		p := Table2Paper[i].GFLOPS
		fmt.Fprintf(w, "%-8s %9.2f %9.2f %6.2f %18.2f %6.2f\n", r.Name, r.GFLOPS, p, r.GFLOPS/p, r.DSEGFLOPS, r.DSEGFLOPS/p)
	}
	if gate != nil {
		fmt.Fprintf(w, "VGG-16 classifier: rejected as in the paper — %v\n", gate)
	} else {
		fmt.Fprintln(w, "WARNING: VGG-16 classifier unexpectedly synthesizable")
	}
}

// WriteFigure5 prints the Figure 5 series. The paper plots the curves
// without values, so each point's ratio is its mean over the largest batch's:
// how far the curve still is from converging.
func WriteFigure5(w io.Writer, series []Figure5Series) {
	fmt.Fprintln(w, "Figure 5 — mean time per image vs. batch size (ms/image, ratio to the largest batch)")
	fmt.Fprintf(w, "%6s", "batch")
	for _, s := range series {
		fmt.Fprintf(w, " %10s %6s", s.Name, "ratio")
	}
	fmt.Fprintln(w)
	for i, p := range series[0].Points {
		fmt.Fprintf(w, "%6d", p.Batch)
		for _, s := range series {
			last := s.Points[len(s.Points)-1].MeanMsPerImage
			fmt.Fprintf(w, " %10.4f %6.2f", s.Points[i].MeanMsPerImage, s.Points[i].MeanMsPerImage/last)
		}
		fmt.Fprintln(w)
	}
	for _, s := range series {
		fmt.Fprintf(w, "%s: %d logical layers — convergence knee expected near batch %d\n", s.Name, s.Layers, s.Layers)
	}
}
