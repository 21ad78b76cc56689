package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one (workload, metric) row of -compare.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictUnbounded  = "no bound" // reported side by side, not judged
)

// cost maps a metric value onto an axis where lower is better, so one rule
// serves every direction.
func cost(def metricDef, x float64) float64 {
	switch def.Better {
	case higher:
		return -x
	case closer1:
		return math.Abs(x - 1)
	}
	return x
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method). It needs at
// least two values.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// judge compares the runs of a change (b) with the runs of its baseline (a)
// under the metric's own bound and direction. The medians decide; where the
// baseline's own spread (the distance between its quartiles) is wider than
// the bound, a difference is unresolved unless every run of the change lies
// on one side of every run of the baseline. A metric without a bound gets no
// verdict.
func judge(def metricDef, a, b []float64) (verdict string, medA, medB float64) {
	medA, medB = median(a), median(b)
	if !def.judged() {
		return verdictUnbounded, medA, medB
	}
	ca, cb := cost(def, medA), cost(def, medB)
	allowed := def.Bound
	if !def.Abs {
		allowed = def.Bound * math.Abs(medA)
	}
	if def.Exact {
		allowed = 0
	}
	switch delta := cb - ca; {
	case delta > allowed:
		verdict = verdictWorse
	case delta < -allowed:
		verdict = verdictBetter
	default:
		// An exact metric is within bound only when every run repeats.
		if def.Exact {
			for _, x := range append(append([]float64(nil), a...), b...) {
				if x != medA {
					return verdictWorse, medA, medB
				}
			}
		}
		return verdictWithin, medA, medB
	}
	if len(a) < 2 {
		return verdict, medA, medB
	}
	costs := func(xs []float64) []float64 {
		cs := make([]float64, len(xs))
		for i, x := range xs {
			cs[i] = cost(def, x)
		}
		sort.Float64s(cs)
		return cs
	}
	ac, bc := costs(a), costs(b)
	if q1, q3 := quartiles(ac); q3-q1 <= allowed {
		return verdict, medA, medB
	}
	worstA, bestA := ac[len(ac)-1], ac[0]
	if (verdict == verdictWorse && bc[0] > worstA) || (verdict == verdictBetter && bc[len(bc)-1] < bestA) {
		return verdict, medA, medB
	}
	return verdictUnresolved, medA, medB
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, metric) of baseline A against
// change B. It refuses results measured on different boxes or settings, and
// fails when any row is worse.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(paths))
	}
	a, err := readResultFile(paths[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(paths[1])
	if err != nil {
		return err
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *resultFile) error {
	if a.Env != b.Env {
		return fmt.Errorf("refusing to compare: the environments differ\n  A: %+v\n  B: %+v", a.Env, b.Env)
	}
	fmt.Fprintf(w, "A: commit %s   B: commit %s\n", a.Commit, b.Commit)
	fmt.Fprintf(w, "%-24s %-36s %14s %14s %9s %10s  %s\n", "workload", "metric", "A (median)", "B (median)", "change", "bound", "verdict")
	worse := 0
	row := func(workload string, def metricDef, av, bv []float64) {
		verdict, medA, medB := judge(def, av, bv)
		if verdict == verdictWorse {
			worse++
		}
		change := "    n/a"
		if medA != 0 {
			change = fmt.Sprintf("%+7.2f%%", 100*(medB-medA)/math.Abs(medA))
		}
		bound := fmt.Sprintf("%g%%", 100*def.Bound)
		switch {
		case !def.judged():
			bound = "none"
		case def.Exact:
			bound = "exact"
		case def.Abs:
			bound = fmt.Sprintf("+%g %s", def.Bound, def.Unit)
		}
		fmt.Fprintf(w, "%-24s %-36s %14.6g %14.6g %9s %10s  %s\n", workload, def.Name, medA, medB, change, bound, verdict)
	}
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			return fmt.Errorf("workload %s is missing from B", wa.Name)
		}
		if len(wa.Untraced) == 0 || len(wb.Untraced) == 0 {
			return fmt.Errorf("workload %s has no untraced pass", wa.Name)
		}
		for _, def := range endToEnd {
			row(wa.Name, def, passValues(wa.Untraced, def.Name), passValues(wb.Untraced, def.Name))
		}
		if wa.Traced == nil || wb.Traced == nil {
			continue
		}
		// Counts the program makes itself must repeat exactly; the timed
		// per-layer metrics carry no bound and are not judged.
		for _, def := range perLayer {
			va, oka := wa.Traced.PerLayer[def.Name]
			vb, okb := wb.Traced.PerLayer[def.Name]
			if def.Exact && oka && okb {
				row(wa.Name, def, []float64{va.Value}, []float64{vb.Value})
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse than their bound allows", worse)
	}
	return nil
}

// passValues collects one end-to-end metric over a workload's untraced runs.
func passValues(passes []*passResult, name string) []float64 {
	var out []float64
	for _, p := range passes {
		if v, ok := p.EndToEnd[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
