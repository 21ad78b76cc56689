package verify

import (
	"fmt"
	"strings"
	"testing"

	"condor/internal/dataflow"
	"condor/internal/diag"
)

// TestFabricCleanDefault: the default deployment of a clean model (one CU,
// host-chunked bursts, auto-sized FIFOs) proves deadlock-free and within
// budget.
func TestFabricCleanDefault(t *testing.T) {
	spec, _, _ := freshTC1(t)
	if ds := VerifyFabric(spec, FabricConfig{}, nil); len(ds) != 0 {
		t.Fatalf("clean default configuration produced diagnostics: %v", ds)
	}
}

// TestFabricEdgesGraph pins the shape of the static FIFO network graph: one
// stream FIFO per PE boundary (including both datamover edges), in stream
// order, each at the spec's declared depth, and nothing else — the FIFOs
// inside a filter chain are not edges of this graph.
func TestFabricEdgesGraph(t *testing.T) {
	spec, _, _ := freshTC1(t)
	edges := FabricEdges(spec, FabricConfig{})
	if want := len(spec.PEs) + 1; len(edges) != want {
		t.Fatalf("graph has %d edges, want %d stream edges", len(edges), want)
	}
	for i, e := range edges {
		if want := fmt.Sprintf("stream%d", i); e.Name != want {
			t.Errorf("edge %d is %s, want %s", i, e.Name, want)
		}
		if e.Depth != spec.InterPEFIFODepth {
			t.Errorf("stream edge %s declares depth %d, spec says %d", e.Name, e.Depth, spec.InterPEFIFODepth)
		}
	}
	if edges[0].From != "datamover" || edges[len(spec.PEs)].To != "datamover" {
		t.Errorf("stream chain must start and end at the datamover: %+v", edges[0])
	}
}

// TestFabricBurstExceedsStreamDepth: a DMA burst longer than the stream
// FIFOs can never complete its transaction — CND020 names the stream edge.
// A burst of exactly the FIFO depth passes.
func TestFabricBurstExceedsStreamDepth(t *testing.T) {
	spec, _, _ := freshTC1(t)

	ds := VerifyFabric(spec, FabricConfig{BurstWords: spec.InterPEFIFODepth + 1}, nil)
	if !rules(ds)[diag.RuleFIFOOccupancy] {
		t.Fatalf("oversized burst not caught: %v", ds)
	}
	if err := diag.Err(ds); err == nil || !strings.Contains(err.Error(), "stream0") {
		t.Errorf("diagnostic does not name the stream edge: %v", err)
	}
	// Every stream edge violates the bound, so every one is named.
	n := 0
	for _, d := range ds {
		if d.Rule == diag.RuleFIFOOccupancy {
			n++
		}
	}
	if want := len(spec.PEs) + 1; n != want {
		t.Errorf("%d stream edges flagged, want %d", n, want)
	}

	if ds := VerifyFabric(spec, FabricConfig{BurstWords: spec.InterPEFIFODepth}, nil); diag.HasErrors(ds) {
		t.Fatalf("burst equal to the FIFO depth must pass: %v", ds)
	}
}

// TestFabricBatchStreamingStreamInterleave: stream FIFOs deep enough for one
// host-chunked transfer but not for two adjacent frames plus their control
// words fire CND024 on every stream edge; the exact interleaved bound passes.
func TestFabricBatchStreamingStreamInterleave(t *testing.T) {
	spec, _, _ := freshTC1(t)
	interleaved := 2 + spec.FrameHeaderWords() // host-chunked: streamWorst = 1

	spec.InterPEFIFODepth = interleaved - 1
	if ds := VerifyFabric(spec, FabricConfig{}, nil); diag.HasErrors(ds) {
		t.Fatalf("depth %d must satisfy the drain-between-images regime: %v", interleaved-1, ds)
	}
	ds := VerifyFabric(spec, FabricConfig{BatchStreaming: true}, nil)
	n := 0
	for _, d := range ds {
		if d.Rule == diag.RuleFrameInterleave {
			n++
		}
	}
	if want := len(spec.PEs) + 1; n != want {
		t.Fatalf("%d stream edges flagged by CND024, want %d: %v", n, want, ds)
	}
	if err := diag.Err(ds); err == nil || !strings.Contains(err.Error(), "stream0") {
		t.Errorf("diagnostic does not name the stream edge: %v", err)
	}

	spec.InterPEFIFODepth = interleaved
	if ds := VerifyFabric(spec, FabricConfig{BatchStreaming: true}, nil); diag.HasErrors(ds) {
		t.Fatalf("depth equal to the interleaved bound must pass: %v", ds)
	}
}

// TestFabricInterleaveSubsumedByOccupancy: an edge already violating the
// one-image bound reports CND020 alone — CND024 would only restate the same
// undersized FIFO with a larger number.
func TestFabricInterleaveSubsumedByOccupancy(t *testing.T) {
	spec, _, _ := freshTC1(t)
	ds := VerifyFabric(spec, FabricConfig{BurstWords: spec.InterPEFIFODepth + 1, BatchStreaming: true}, nil)
	r := rules(ds)
	if !r[diag.RuleFIFOOccupancy] {
		t.Fatalf("oversized burst not caught: %v", ds)
	}
	if r[diag.RuleFrameInterleave] {
		t.Errorf("CND024 duplicated a CND020 finding: %v", ds)
	}
}

// TestFabricCUOvercommit: replicating the kernel past the board budget is
// rejected with CND021; the single-CU configuration of a clean model fits.
func TestFabricCUOvercommit(t *testing.T) {
	spec, _, _ := freshTC1(t)

	ds := VerifyFabric(spec, FabricConfig{CUs: 1 << 20}, nil)
	if !rules(ds)[diag.RuleCUResource] {
		t.Fatalf("overcommitted CU replication not caught: %v", ds)
	}
	if err := diag.Err(ds); err == nil || !strings.Contains(err.Error(), "compute units exceed") {
		t.Errorf("CND021 must be an error naming the replication: %v", err)
	}

	if ds := VerifyFabric(spec, FabricConfig{CUs: 1}, nil); diag.HasErrors(ds) {
		t.Fatalf("single CU must fit: %v", ds)
	}
}

// TestFabricConfigSanity: negative knobs are CND022 errors and stop the
// pass before the capacity/resource rules run on a nonsensical config.
func TestFabricConfigSanity(t *testing.T) {
	spec, _, _ := freshTC1(t)
	ds := VerifyFabric(spec, FabricConfig{CUs: -1, BurstWords: -8}, nil)
	r := rules(ds)
	if !r[diag.RuleFabricConfig] {
		t.Fatalf("negative configuration not caught: %v", ds)
	}
	if r[diag.RuleFIFOOccupancy] || r[diag.RuleCUResource] {
		t.Errorf("capacity/resource rules ran on an unexecutable config: %v", ds)
	}
	if n := len(ds); n != 2 {
		t.Errorf("want 2 CND022 diagnostics, got %d: %v", n, ds)
	}
}

// TestLintConfigMergesCatalogues: LintConfig reports both a structural
// violation and a fabric violation in one sorted batch.
func TestLintConfigMergesCatalogues(t *testing.T) {
	spec, ir, ws := freshTC1(t)
	// CND001/CND002 downstream of the shape, CND020 on every stream edge.
	featurePE(t, spec).Layers[0].OutShape.Height++
	ds := LintConfig(spec, ir, ws, FabricConfig{BurstWords: spec.InterPEFIFODepth + 1})
	r := rules(ds)
	if !r[diag.RuleFIFOOccupancy] {
		t.Errorf("fabric rule missing from LintConfig batch: %v", ds)
	}
	if !r[diag.RuleShapeGeometry] && !r[diag.RuleShapeChain] {
		t.Errorf("structural rules missing from LintConfig batch: %v", ds)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Severity < ds[i].Severity {
			t.Fatalf("batch not sorted errors-first: %v", ds)
		}
	}
}

// TestFabricEmptySpec: a nil or empty spec is a CND017 error, not a panic.
func TestFabricEmptySpec(t *testing.T) {
	for _, spec := range []*dataflow.Spec{nil, {}} {
		ds := VerifyFabric(spec, FabricConfig{}, nil)
		if !rules(ds)[diag.RuleEmptyStructure] {
			t.Fatalf("empty spec not rejected: %v", ds)
		}
	}
}
