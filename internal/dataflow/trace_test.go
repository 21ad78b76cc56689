package dataflow

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"condor/internal/models"
	"condor/internal/obs"
)

// TestTraceCyclesReconcile pins the observability contract: the span cycle
// totals recorded on a PE's tracks (one per worker) must equal the PE's
// RunStats cycle counter exactly — every modeled cycle a PE accumulates is
// attributed to exactly one span — with one span per layer per chunk, at
// GOMAXPROCS 1 and 2.
func TestTraceCyclesReconcile(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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

			// Chunks of ⌈3/procs⌉ images: one span per layer per chunk,
			// on as many tracks per PE as the session had workers.
			chunk := (len(batch) + procs - 1) / procs
			chunks := (len(batch) + chunk - 1) / chunk
			spans, tracks := map[string]int{}, map[string]int{}
			for _, tk := range tr.Tracks() {
				spans[tk.Name()] += len(tk.Spans())
				tracks[tk.Name()]++
			}
			for _, pe := range spec.PEs {
				if got, want := spans[pe.ID], len(pe.Layers)*chunks; got != want {
					t.Errorf("PE %s: %d spans, want %d (%d layers x %d chunks)", pe.ID, got, want, len(pe.Layers), chunks)
				}
				if tracks[pe.ID] != procs {
					t.Errorf("PE %s: %d tracks, want one per worker (%d)", pe.ID, tracks[pe.ID], procs)
				}
			}

			// The exported Chrome trace validates and names every PE lane.
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
				t.Fatalf("trace does not validate: %v", err)
			}
			for _, pe := range spec.PEs {
				if !strings.Contains(buf.String(), pe.ID) {
					t.Errorf("trace missing lane %q", pe.ID)
				}
			}
		})
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
// totals, and the burst and occupancy families a session does not measure
// are gone.
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
		`condor_fabric_ddr_bytes_total{dir="read"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s:\n%s", want, text)
		}
	}
	for _, gone := range []string{"condor_fifo_bursts_total", "condor_fifo_max_occupancy_words"} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition still carries %s:\n%s", gone, text)
		}
	}
}
