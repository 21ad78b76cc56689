package condor

import (
	"strings"
	"testing"

	"condor/internal/models"
)

// The reproduction targets the paper's qualitative shape, not its absolute
// numbers (our substrate is a model, not the authors' testbed). These tests
// state the shape the paper claims; TestPaperTables pins every number.

func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "TC1" || rows[1].Name != "LeNet" {
		t.Fatalf("rows = %+v", rows)
	}
	tc1, lenet := rows[0], rows[1]

	// Clocks close as requested (100 / 180 MHz).
	if tc1.AchievedMHz != 100 || lenet.AchievedMHz != 180 {
		t.Fatalf("clocks = %v / %v", tc1.AchievedMHz, lenet.AchievedMHz)
	}
	// TC1 outperforms LeNet in GFLOPS and GFLOPS/W (paper: 8.36 vs 3.35,
	// 1.56 vs 0.78).
	if tc1.GFLOPS <= lenet.GFLOPS {
		t.Fatalf("TC1 GFLOPS %v should exceed LeNet %v", tc1.GFLOPS, lenet.GFLOPS)
	}
	if tc1.GFLOPSPerWatt <= lenet.GFLOPSPerWatt {
		t.Fatalf("TC1 efficiency %v should exceed LeNet %v", tc1.GFLOPSPerWatt, lenet.GFLOPSPerWatt)
	}
	// LeNet is BRAM-dominated (on-chip FC weights), far above TC1's BRAM.
	if lenet.BRAMPct <= 4*tc1.BRAMPct {
		t.Fatalf("LeNet BRAM %v%% should dwarf TC1 %v%%", lenet.BRAMPct, tc1.BRAMPct)
	}
	// The magnitudes themselves are pinned by TestPaperTables.
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.GFLOPS
	}
	// Paper ordering: VGG-16 (113) > LeNet (53) > TC1 (16).
	if !(byName["VGG-16"] > byName["LeNet"] && byName["LeNet"] > byName["TC1"]) {
		t.Fatalf("Table 2 ordering violated: %+v", byName)
	}
	// The improved methodology beats the sequential Table 1 numbers.
	t1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if byName["TC1"] <= t1[0].GFLOPS {
		t.Fatalf("improved TC1 %v should beat sequential %v", byName["TC1"], t1[0].GFLOPS)
	}
	if byName["LeNet"] <= t1[1].GFLOPS {
		t.Fatalf("improved LeNet %v should beat sequential %v", byName["LeNet"], t1[1].GFLOPS)
	}
}

func TestVGGClassifierGateReproduced(t *testing.T) {
	err := VerifyVGGClassifierGate()
	if err == nil {
		t.Fatal("the VGG-16 classifier must be rejected, as the paper reports")
	}
	if !strings.Contains(err.Error(), "not synthesizable") {
		t.Fatalf("unexpected gate error: %v", err)
	}
}

func TestFigure5Shape(t *testing.T) {
	series, err := Figure5(DefaultFigure5Batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		pts := s.Points
		for i := 1; i < len(pts); i++ {
			if pts[i].MeanMsPerImage > pts[i-1].MeanMsPerImage*1.0001 {
				t.Fatalf("%s: mean time must decrease with batch size: %+v", s.Name, pts)
			}
		}
		// Convergence: batch 64 within 25% of the asymptote implied by the
		// largest batch, and the knee near the layer count: the mean at
		// batch ≥ layers is much closer to the asymptote than batch 1.
		first := pts[0].MeanMsPerImage
		last := pts[len(pts)-1].MeanMsPerImage
		// LeNet's pipeline is dominated by the ip1 stage, so the effect is
		// smaller there (≈1.2x) than for the balanced TC1 pipeline.
		if first < 1.15*last {
			t.Fatalf("%s: expected a pronounced pipeline effect (batch1 %.4f vs batch64 %.4f)", s.Name, first, last)
		}
		var atKnee float64
		for _, p := range pts {
			if p.Batch >= s.Layers {
				atKnee = p.MeanMsPerImage
				break
			}
		}
		if atKnee == 0 || atKnee > 2*last {
			t.Fatalf("%s: convergence knee not near layer count (%d): knee %.4f vs limit %.4f",
				s.Name, s.Layers, atKnee, last)
		}
	}
}

func TestIRFeatureFLOPs(t *testing.T) {
	// Against the nn accounting on TC1 (which has weights available).
	b, err := New().BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	net, err := b.IR.BuildNN(b.Weights)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.IR.FeatureFLOPs()
	if err != nil {
		t.Fatal(err)
	}
	want := net.FeatureExtractionFLOPs()
	if got != want {
		t.Fatalf("feature FLOPs %d != nn accounting %d", got, want)
	}
}

func TestAlexNetClassifierGate(t *testing.T) {
	// AlexNet's fc6 (37.7M words) also exceeds the HLS array limit.
	err := ClassifierGate(models.AlexNet())
	if err == nil || !strings.Contains(err.Error(), "not synthesizable") {
		t.Fatalf("expected AlexNet classifier rejection, got %v", err)
	}
	// Its features stage synthesizes fine.
	if err := ClassifierGate(models.AlexNetFeatures()); err != nil {
		t.Fatalf("AlexNet features should synthesize: %v", err)
	}
}
