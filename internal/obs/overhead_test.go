package obs

import (
	"math"
	"testing"
	"time"
)

// hookedElement mirrors how the fabric holds its tracing hook: a Tracer
// interface field that is nil when tracing is off, checked at every hook
// site. The benchmark and gate below measure exactly that disabled path —
// the cost the hot loop pays for being traceable.
type hookedElement struct {
	tracer Tracer
	track  *Track
	cycles int64
}

//go:noinline
func (h *hookedElement) step(name string, cycles int64) {
	start := h.cycles
	h.cycles += cycles
	if h.tracer == nil {
		return
	}
	if h.track == nil {
		h.track = h.tracer.Track("bench")
	}
	id := h.track.Begin(name, start)
	h.track.End(id, h.cycles)
}

// BenchmarkTracerDisabled measures the per-hook cost with tracing off: one
// interface nil check and a branch. This is the number the fabric's
// benchmark figures depend on staying negligible.
func BenchmarkTracerDisabled(b *testing.B) {
	h := &hookedElement{}
	for i := 0; i < b.N; i++ {
		h.step("layer", 100)
	}
	if h.cycles == 0 {
		b.Fatal("hook did not run")
	}
}

// BenchmarkTracerEnabled measures the same hook with a live trace attached,
// for the EXPERIMENTS.md overhead note.
func BenchmarkTracerEnabled(b *testing.B) {
	h := &hookedElement{tracer: NewTrace()}
	for i := 0; i < b.N; i++ {
		h.step("layer", 100)
	}
}

// TestDisabledTracerOverhead gates the disabled path at ≤5 ns per hook. The
// budget is generous for a nil check (sub-nanosecond on current hardware)
// but the gate still catches anyone putting an allocation, map lookup or
// lock on the disabled path. Skipped under the race detector and -short,
// where instrumentation dominates the measurement.
func TestDisabledTracerOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments every memory access; timing is meaningless")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	const (
		budgetNs = 5.0
		// Each window times calls hooks, a fraction of a millisecond: short
		// enough that some windows run without being preempted even while
		// other test binaries share the CPUs. The gate takes the fastest
		// window, because it bounds the code path's cost, not the
		// scheduler's worst case.
		calls   = 1 << 16
		windows = 1000
	)
	h := &hookedElement{}
	best := math.Inf(1)
	for w := 0; w < windows; w++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			h.step("layer", 100)
		}
		if ns := float64(time.Since(start).Nanoseconds()) / calls; ns < best {
			best = ns
		}
	}
	if h.cycles != 100*calls*windows {
		t.Fatalf("hook ran %d cycles, want %d", h.cycles, 100*calls*windows)
	}
	if best > budgetNs {
		t.Errorf("disabled tracer hook costs %.2f ns/op, budget %v ns/op", best, budgetNs)
	}
	t.Logf("disabled tracer hook: %.2f ns/op (budget %v)", best, budgetNs)
}
