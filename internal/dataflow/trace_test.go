package dataflow

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"condor/internal/models"
	"condor/internal/obs"
)

// TestTraceCyclesReconcile pins the observability contract: the span cycle
// totals recorded per PE track must equal the PE's RunStats cycle counter
// exactly — every modeled cycle a PE accumulates is attributed to exactly
// one span. Feeder and collector tracks carry word counts, not cycles.
func TestTraceCyclesReconcile(t *testing.T) {
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
	tr := obs.NewTrace()
	acc.SetTracer(tr)
	batch := models.USPSImages(3, 5)
	_, stats, err := acc.Run(batch)
	if err != nil {
		t.Fatal(err)
	}

	for i := range stats.PEs {
		pe := &stats.PEs[i]
		if got := tr.TrackCycles(pe.ID); got != pe.Cycles {
			t.Errorf("PE %s: span cycles %d != RunStats cycles %d", pe.ID, got, pe.Cycles)
		}
	}

	// Per-PE span count: one span per layer per image.
	byTrack := map[string]int{}
	for _, tk := range tr.Tracks() {
		byTrack[tk.Name()] += len(tk.Spans())
	}
	for _, pe := range spec.PEs {
		want := len(pe.Layers) * len(batch)
		if got := byTrack[pe.ID]; got != want {
			t.Errorf("PE %s: %d spans, want %d (%d layers x %d images)",
				pe.ID, got, want, len(pe.Layers), len(batch))
		}
	}
	if got := byTrack["feeder"]; got != len(batch) {
		t.Errorf("feeder: %d spans, want %d", got, len(batch))
	}
	if got := byTrack["collector"]; got != len(batch) {
		t.Errorf("collector: %d spans, want %d", got, len(batch))
	}

	// The exported Chrome trace validates and names every fabric lane.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	for _, lane := range []string{"feeder", "collector", spec.PEs[0].ID} {
		if !strings.Contains(buf.String(), lane) {
			t.Errorf("trace missing lane %q", lane)
		}
	}
}

// TestTracerDisabledUntouched checks the default: no tracer attached means
// Run behaves exactly as before and records nothing.
func TestTracerDisabledUntouched(t *testing.T) {
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
	if _, _, err := acc.Run(models.USPSImages(1, 5)); err != nil {
		t.Fatal(err)
	}
}

// TestRunStatsPublish checks the metrics bridge: a run's counters land in a
// registry under the condor_fabric_*/condor_fifo_* families with the right
// totals.
func TestRunStatsPublish(t *testing.T) {
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
	_, stats, err := acc.Run(models.USPSImages(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	stats.Publish(reg)
	text := reg.TextSnapshot()

	if !strings.Contains(text, "condor_fabric_images_total 2") {
		t.Errorf("images counter missing:\n%s", text)
	}
	for i := range stats.PEs {
		pe := &stats.PEs[i]
		if got := reg.Counter("condor_fabric_pe_cycles_total",
			"Modeled busy cycles per processing element.", obs.L("pe", pe.ID)).Value(); got != pe.Cycles {
			t.Errorf("PE %s cycles metric %d != stats %d", pe.ID, got, pe.Cycles)
		}
	}
	for _, want := range []string{
		`condor_fifo_words_total{op="push",stream="stream0"}`,
		`condor_fifo_bursts_total{op="pop",stream="stream0"}`,
		`condor_fabric_ddr_bytes_total{dir="read"}`,
		`condor_fifo_max_occupancy_words{stream="stream0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s:\n%s", want, text)
		}
	}
}

// TestLayerSpansExcludeBackpressure holds the sink: the collector sleeps
// before it retires each image, and the stream depth is squeezed below the
// output frame, so the last PE's push blocks until the collector wakes and
// the stall backs up through every PE. A layer span brackets the layer's
// own work — a PE's waits for its input (popFrame) and for room downstream
// (pushFrame) both fall outside every span — so no PE's spans may add up to
// even one hold, while the session as a whole takes one hold per image.
func TestLayerSpansExcludeBackpressure(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	spec.InterPEFIFODepth = 4
	if out := spec.OutputShape().Volume(); out <= spec.InterPEFIFODepth {
		t.Fatalf("output frame of %d words fits the %d-word sink: the push would not block", out, spec.InterPEFIFODepth)
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	acc.SetTracer(tr)
	const hold = 50 * time.Millisecond
	batch := models.USPSImages(4, 5)
	s := acc.OpenSession()
	s.testExpectEpoch = func(_ int, epoch uint16) uint16 {
		time.Sleep(hold)
		return epoch
	}
	start := time.Now()
	_, stats, err := s.RunBatch(batch)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < time.Duration(len(batch))*hold {
		t.Fatalf("the batch took %v, less than its %d holds: the sink was not held", took, len(batch))
	}
	for _, pe := range stats.PEs {
		var wall time.Duration
		for _, tk := range tr.Tracks() {
			if tk.Name() == pe.ID {
				for _, sp := range tk.Spans() {
					wall += sp.End.Sub(sp.Start)
				}
			}
		}
		if wall >= hold {
			t.Errorf("PE %s: layer spans add up to %v over %d images, at least one %v hold of the sink", pe.ID, wall, len(batch), hold)
		}
		if got := tr.TrackCycles(pe.ID); got != pe.Cycles {
			t.Errorf("PE %s: span cycles %d != RunStats cycles %d", pe.ID, got, pe.Cycles)
		}
	}
}
