// Command condor-bench regenerates the paper's evaluation — Table 1,
// Table 2 and Figure 5 — and prints each result side by side with the
// numbers the paper reports. Absolute values come from this repository's
// analytic models rather than the authors' testbed; the shapes (who wins,
// by what factor, where the curves converge) are the reproduction target.
//
// Usage:
//
//	condor-bench            # everything
//	condor-bench -only table1|table2|figure5
//	condor-bench -layers tc1               # per-layer traced profile, float32 and int8
package main

import (
	"flag"
	"fmt"
	"os"

	"condor"
)

func main() {
	only := flag.String("only", "", "run a single experiment: table1 | table2 | figure5")
	layers := flag.String("layers", "", "print a per-layer traced profile of the fabric, float32 and int8: tc1 | lenet")
	layersBatch := flag.Int("layers-batch", 16, "batch size for the -layers profile")
	flag.Parse()

	if *layers != "" {
		if err := layerTable(*layers, *layersBatch); err != nil {
			fmt.Fprintf(os.Stderr, "condor-bench: layers: %v\n", err)
			os.Exit(1)
		}
		if *only == "" {
			return // -layers alone prints only the profile
		}
	}

	run := func(name string, fn func() error) {
		if *only != "" && *only != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "condor-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("table1", table1)
	run("table2", table2)
	run("figure5", figure5)
}

func table1() error {
	rows, err := condor.Table1()
	if err != nil {
		return err
	}
	condor.WriteTable1(os.Stdout, rows)
	fmt.Println()
	return nil
}

func table2() error {
	rows, err := condor.Table2()
	if err != nil {
		return err
	}
	condor.WriteTable2(os.Stdout, rows, condor.VerifyVGGClassifierGate())
	fmt.Println()
	return nil
}

func figure5() error {
	series, err := condor.Figure5(condor.DefaultFigure5Batches)
	if err != nil {
		return err
	}
	condor.WriteFigure5(os.Stdout, series)
	fmt.Println()
	return nil
}
