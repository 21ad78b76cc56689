package dse

import (
	"fmt"
	"reflect"
	"testing"

	"condor/internal/board"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/hls"
	"condor/internal/models"
	"condor/internal/perf"
	"condor/internal/quant"
)

// rebuild is the reference pricing: the configuration ir describes, built
// from scratch. It runs BuildSpec, the memory plan, the synthesis estimate,
// the roofline check against a fresh board lookup and FLOP count, and the
// objective's stages, with nothing carried over from an earlier pricing.
func rebuild(ir *condorir.Network, opts Options, p quant.Precision) (*dataflow.Spec, *hls.Report, score, error) {
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		return nil, nil, score{}, err
	}
	spec.WordBits = p.Bits()
	if err := hls.PlanMemory(spec); err != nil {
		return nil, nil, score{}, err
	}
	rep, err := hls.Estimate(spec)
	if err != nil {
		return nil, nil, score{}, err
	}
	b, err := board.Lookup(spec.Board)
	if err != nil {
		return nil, nil, score{}, err
	}
	flops, err := ir.FLOPs()
	if err != nil {
		return nil, nil, score{}, err
	}
	lanes := 0
	for i := range rep.PEs {
		lanes += rep.PEs[i].MACs
	}
	r := perf.AnalyzeRoofline(spec, b, lanes, flops, rep.AchievedMHz)
	if r.BandwidthBound() {
		return nil, nil, score{}, fmt.Errorf("dse: configuration is DDR-bandwidth bound (sustained %.1f GFLOPS over a %.1f GFLOPS roof)",
			r.SustainedGFLOPS, r.AttainableGFLOPS)
	}
	stages := objectiveStages(spec, opts)
	return spec, rep, score{bottleneck: perf.Bottleneck(stages), total: perf.Latency(stages)}, nil
}

// digestNets are the model digest's four networks.
func digestNets(t testing.TB) []struct {
	name string
	ir   *condorir.Network
} {
	t.Helper()
	lenet, _, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	tc1, _, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		ir   *condorir.Network
	}{
		{"tc1", tc1},
		{"lenet", lenet},
		{"alexnet-features", models.AlexNetFeatures()},
		{"vgg16-features", models.VGG16Features()},
	}
}

// TestMovePricingExact walks every digest network at float32 and int8, under
// the default options and Table 2's, and prices every candidate both ways:
// on the copy of the current spec (withMove + price) and by rebuilding the
// trial IR from scratch (rebuild). Spec, report and score must match
// exactly, and pricing a candidate must leave the current spec as a rebuild
// of the current IR makes it. The walk advances on the copies, as Explore
// does, and its outcome must be Explore's.
func TestMovePricingExact(t *testing.T) {
	for _, n := range digestNets(t) {
		for _, p := range []quant.Precision{quant.Float32, quant.Int8} {
			for _, o := range []struct {
				name string
				opts Options
			}{
				{"default", Options{}},
				{"table2", Options{FeaturesOnly: true, MaxIterations: 96, MaxPortParallelism: 2}},
			} {
				t.Run(fmt.Sprintf("%s/%s/%s", n.name, p, o.name), func(t *testing.T) {
					opts := o.opts
					opts.Precisions = []quant.Precision{p}
					got, err := Explore(n.ir, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, candidates := pricedWalk(t, n.ir, opts.withDefaults(), p)
					if candidates == 0 {
						t.Fatal("the walk priced no candidate")
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("Explore's result differs from the reference walk's:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// pricedWalk replays exploreAt's walk, checking each candidate's copy
// pricing against rebuild, and returns the walk's result and the number of
// candidates it priced.
func pricedWalk(t *testing.T, ir *condorir.Network, opts Options, p quant.Precision) (*Result, int) {
	t.Helper()
	cur := cloneIR(ir)
	for i := range cur.Layers {
		cur.Layers[i].Parallelism = cur.Layers[i].Parallelism.Normalize()
	}
	w, err := newWalk(cur, opts, p)
	if err != nil {
		t.Fatal(err)
	}
	spec, rep, best, err := rebuild(cur, opts, p)
	if err != nil {
		t.Fatal(err)
	}
	// curSpec is the current configuration rebuilt on its own, to check that
	// pricing a candidate leaves the current spec as it was.
	curSpec, _, _, err := rebuild(cur, opts, p)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{IR: cur, Spec: spec, Report: rep, BottleneckCycles: best.bottleneck, Precision: p}
	candidates := 0
	for iter := 0; iter < opts.MaxIterations; iter++ {
		improved := false
		for _, mv := range w.candidateMoves(res) {
			candidates++
			trial := cloneIR(res.IR)
			mv.writeTo(trial)
			wantSpec, wantRep, wantScore, wantErr := rebuild(trial, opts, p)
			spec := w.withMove(res.Spec, res.IR, mv)
			rep, sc, err := w.price(spec)
			if !reflect.DeepEqual(res.Spec, curSpec) {
				t.Fatalf("move %+v: pricing it changed the current spec", mv)
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("move %+v: error %v, rebuilt %v", mv, err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(spec, wantSpec) {
				t.Fatalf("move %+v: copied spec differs from the rebuilt one", mv)
			}
			if !reflect.DeepEqual(rep, wantRep) {
				t.Fatalf("move %+v: report on the copy differs from the rebuilt one", mv)
			}
			if sc != wantScore {
				t.Fatalf("move %+v: score %+v, rebuilt %+v", mv, sc, wantScore)
			}
			if !rep.Fits || !sc.betterThan(best) {
				continue
			}
			w.spare, curSpec = res.Spec, wantSpec
			res.IR, res.Spec, res.Report, res.BottleneckCycles = trial, spec, rep, sc.bottleneck
			best = sc
			l := &trial.Layers[mv.layerIdx]
			res.Trace = append(res.Trace, Move{Layer: l.Name, Parallelism: l.Parallelism.Normalize(), Algorithm: string(mv.algo), Bottleneck: sc.bottleneck})
			improved = true
			break
		}
		if !improved {
			break
		}
	}
	res.Algorithms = chosenAlgorithms(res.Spec)
	return res, candidates
}

// TestExploreAllocations bounds the heap allocations of one walk, as
// TestWarmSessionAllocations bounds a warm session's: the explorer runs on
// every DSE build, and its evaluations multiply with the move set.
func TestExploreAllocations(t *testing.T) {
	lenet, _, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	tc1, _, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		ir     *condorir.Network
		budget float64
	}{
		{"lenet", lenet, 220},
		{"tc1", tc1, 275},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				_, err = Explore(tc.ir, Options{Precisions: []quant.Precision{quant.Float32}})
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs > tc.budget {
				t.Fatalf("Explore allocated %.0f times, want at most %.0f", allocs, tc.budget)
			}
		})
	}
}

// BenchmarkExplore times one walk per digest network and precision, the
// explorer's cost on every DSE build.
func BenchmarkExplore(b *testing.B) {
	for _, n := range digestNets(b) {
		for _, p := range []quant.Precision{quant.Float32, quant.Int8} {
			opts := Options{Precisions: []quant.Precision{p}}
			b.Run(fmt.Sprintf("%s/%s", n.name, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Explore(n.ir, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
