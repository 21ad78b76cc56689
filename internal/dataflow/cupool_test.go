package dataflow

import (
	"fmt"
	"strings"
	"testing"

	"condor/internal/condorir"
	"condor/internal/models"
)

// TestCUPoolSmallBatches pins the shard math at the degenerate ends — fewer
// images than compute units (trailing units must idle, not deadlock), a
// batch of one (the single-unit delegation path), and an uneven split (short
// last shard plus one idle unit) — each bit-identical to the word oracle,
// which also proves reassembly preserved input order.
func TestCUPoolSmallBatches(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	par := condorir.Parallelism{In: 2, Out: 2}
	for _, tc := range []struct{ batch, cus int }{
		{2, 4}, // fewer images than units
		{1, 3}, // batch of one
		{5, 4}, // uneven split, one idle unit
	} {
		name := fmt.Sprintf("batch=%d/cus=%d", tc.batch, tc.cus)
		t.Run(name, func(t *testing.T) {
			runParallelCase(t, ir, ws, models.USPSImages(tc.batch, 23), par, tc.cus)
		})
	}
}

// TestCUPoolReplicaError: a replica failing mid-batch must join every shard
// and surface an error naming the unit — no deadlock, no partial outputs —
// and must leave the healthy units untouched.
func TestCUPoolReplicaError(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewCUPool(acc, 2)
	// Corrupt the replica: an empty datamover has no weights, so the unit's
	// shard fails deterministically on its first layer.
	pool.cus[1].dm = NewDatamover()

	outs, stats, err := pool.RunBatch(models.USPSImages(4, 9))
	if err == nil {
		t.Fatal("corrupted replica did not fail the run")
	}
	if !strings.Contains(err.Error(), "cu1") {
		t.Fatalf("error does not name the failing unit: %v", err)
	}
	if !strings.Contains(err.Error(), "no weights") {
		t.Fatalf("error does not carry the unit's failure: %v", err)
	}
	if outs != nil || stats != nil {
		t.Fatalf("failed run leaked partial outputs (%v) or stats (%v)", outs, stats)
	}

	// Unit 0 is intact: a batch of one rides the delegation path and runs.
	if _, _, err := pool.RunBatch(models.USPSImages(1, 9)); err != nil {
		t.Fatalf("healthy unit broken after failed pool run: %v", err)
	}
	// Close joins both units' sessions and reports the failed one again.
	if err := pool.Close(); err == nil || !strings.Contains(err.Error(), "no weights") {
		t.Fatalf("Close did not re-report the failed unit: %v", err)
	}
}
