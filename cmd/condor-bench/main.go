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
//	condor-bench -json BENCH_fabric.json   # fabric microbenchmarks → JSON
//	condor-bench -layers tc1               # per-layer traced cycle profile
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"condor"
	"condor/internal/quant"
)

func main() {
	only := flag.String("only", "", "run a single experiment: table1 | table2 | figure5")
	jsonOut := flag.String("json", "", "run the fabric microbenchmarks and write results to this JSON file (e.g. BENCH_fabric.json)")
	cusList := flag.String("cus", "1,2", "comma-separated compute-unit counts for the -json batch-throughput legs")
	dtypeList := flag.String("dtype", "float32", "comma-separated fabric numeric formats for the -json legs: float32 | int8")
	layers := flag.String("layers", "", "print a per-layer traced cycle profile of the fabric: tc1 | lenet")
	layersBatch := flag.Int("layers-batch", 4, "batch size for the -layers profile")
	flag.Parse()

	cus, err := parseCUs(*cusList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "condor-bench: -cus: %v\n", err)
		os.Exit(1)
	}
	dtypes, err := parseDtypes(*dtypeList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "condor-bench: -dtype: %v\n", err)
		os.Exit(1)
	}

	if *layers != "" {
		if err := layerTable(*layers, *layersBatch); err != nil {
			fmt.Fprintf(os.Stderr, "condor-bench: layers: %v\n", err)
			os.Exit(1)
		}
		if *only == "" && *jsonOut == "" {
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
	if *jsonOut != "" {
		if err := benchJSON(*jsonOut, cus, dtypes); err != nil {
			fmt.Fprintf(os.Stderr, "condor-bench: bench: %v\n", err)
			os.Exit(1)
		}
		if *only == "" && *layers == "" {
			return // -json (with optional -cus) runs only the microbenchmarks
		}
	}
	run("table1", table1)
	run("table2", table2)
	run("figure5", figure5)
}

// parseCUs parses the -cus list ("1,2,4") into positive ints.
func parseCUs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid compute-unit count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseDtypes parses the -dtype list ("float32,int8") into precisions.
func parseDtypes(s string) ([]quant.Precision, error) {
	var out []quant.Precision
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "":
		case "float32":
			out = append(out, quant.Float32)
		case "int8":
			out = append(out, quant.Int8)
		default:
			return nil, fmt.Errorf("unknown dtype %q (float32 | int8)", part)
		}
	}
	if len(out) == 0 {
		out = []quant.Precision{quant.Float32}
	}
	return out, nil
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
