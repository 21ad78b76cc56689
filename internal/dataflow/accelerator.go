package dataflow

import (
	"fmt"
	"sync"

	"condor/internal/condorir"
	"condor/internal/fifo"
	"condor/internal/obs"
	"condor/internal/tensor"
)

// Accelerator is an instantiated dataflow fabric: a Spec bound to a weight
// set loaded into the (simulated) on-board memory, ready to execute
// inference batches. This is the functional equivalent of the synthesized
// bitstream running on the device. The spec is read-only once instantiated.
type Accelerator struct {
	Spec   *Spec
	tracer obs.Tracer

	// plan is the weight set lowered for the spec, one record per PE: built
	// once by Instantiate and read, never written, by every compute unit
	// Replicate makes.
	plan []pePlan

	// configLoad is the DDR bytes of the one-time configuration load that
	// fills the on-chip weight caches, counted from the plan by Instantiate.
	// Every run's datamover starts from it.
	configLoad int64

	// trackPrefix namespaces this unit's trace tracks ("cu1/pe0", …).
	// Empty for a standalone fabric, so its track names carry no unit.
	trackPrefix string
}

// SetTracer attaches a span tracer to the fabric. Every session opened after
// it records one track per worker and PE, named after the PE, with one span
// per layer per chunk whose cycles are the chunk's share of the PE's
// schedule, so span cycle totals reconcile exactly with RunStats and a span's
// host time is the layer's own work. A nil tracer (the default) disables
// tracing; the hot path then pays only a nil check per hook site. RunWords is
// the equivalence oracle and stays uninstrumented.
func (a *Accelerator) SetTracer(t obs.Tracer) { a.tracer = t }

// Instantiate binds a spec to its weights. It is the one place a weight set
// is checked and lowered: every PE's layers are validated against what the
// executors assume, and their weights become the plan every session and
// compute unit reads — float streams, tap tables, int8 codes, Winograd
// transforms and kernel choices. On-chip caching decisions are accounted as
// the one-time configuration load. Weight-set failures are reported as
// wrapped diag.Diagnostic errors carrying the same rule IDs the
// internal/verify pass fires statically, so callers and tests can match on
// diag.Rule.
func Instantiate(spec *Spec, ws *condorir.WeightSet) (*Accelerator, error) {
	a := &Accelerator{Spec: spec, plan: make([]pePlan, len(spec.PEs))}
	for i, pe := range spec.PEs {
		if err := a.plan[i].lower(pe, spec.Bits(), ws); err != nil {
			return nil, fmt.Errorf("dataflow: %w", err)
		}
		if !pe.WeightsOnChip {
			continue
		}
		for _, st := range a.plan[i].layers {
			// The DDR→BRAM load: a float32 word per weight, or one byte per
			// int8 code where a word packs lanes of them.
			a.configLoad += int64(4/spec.Lanes()) * int64(len(st.w)+len(st.b))
		}
	}
	return a, nil
}

// Replicate returns n compute units of the instantiated design (n < 1 is
// treated as 1): the receiver first, then copies that share its plan and
// tracer. A unit holds no counters — each run owns its own — so the units
// execute concurrently with no shared mutable state, and each reports what
// the receiver would. With n > 1 every unit's trace tracks are namespaced
// "cu0/", "cu1/", … so a shared tracer keeps their timelines apart.
func (a *Accelerator) Replicate(n int) []*Accelerator {
	cus := []*Accelerator{a}
	for i := 1; i < n; i++ {
		cu := *a
		cus = append(cus, &cu)
	}
	if n > 1 {
		for i, cu := range cus {
			cu.trackPrefix = fmt.Sprintf("cu%d/", i)
		}
	}
	return cus
}

// RunStats aggregates one run: an Accelerator.Run or RunWords call, or a
// session from its opening. Every counter, DRAM included, covers exactly
// that run; DRAM also counts the one-time configuration load, as the
// device's first run would.
type RunStats struct {
	Images  int
	PEs     []PEStats
	DRAM    DatamoverStats
	Streams []StreamStats // inter-PE stream traffic; occupancy and bursts only where RunWords measures them

	// InputScale is the largest per-image activation quantization scale the
	// input stage applied over the batch (packed int8 datapath only; zero on the
	// float paths). Together with the per-PE MaxRequantScale values it
	// bounds the admissible deviation from the float oracle.
	InputScale float64
}

// StreamStats is one inter-PE stream edge's traffic: what a FIFO measures,
// and the modeled lane and frame-header totals a session books from the
// schedule. RunWords streams unpacked, unframed words, so it leaves those
// four zero; a session leaves the bursts and occupancy zero.
type StreamStats struct {
	fifo.Stats
	LanePushes, LanePops     int64 // int8 lanes inside packed words; zero on the float32 datapath
	HeaderPushes, HeaderPops int64 // frame-header words, one per image, apart from the datapath words
}

// QuantErrorBound derives the admissible element-wise deviation of a packed
// int8 run from the float32 oracle out of the per-tensor scales the run
// recorded: every quantization point (the input stage plus each PE's
// requantize boundary) contributes up to half a step of rounding error, and upstream
// error is amplified as it propagates through the MAC chains, so the bound
// takes a conservative multiple of the summed scales. Zero on float runs
// (no scales recorded — the float paths are held to bit-identity instead).
func (s *RunStats) QuantErrorBound() float64 {
	sum := s.InputScale
	for i := range s.PEs {
		sum += s.PEs[i].MaxRequantScale
	}
	return 8 * sum
}

// WinogradErrorBound derives the admissible element-wise deviation of a run
// with winograd_f23 layers from the direct-convolution oracle, out of the
// per-PE output magnitudes the run recorded: the F(2,3) transforms evaluate
// each output through a short chain of exactly-representable ±1/±½
// combinations, so the rounding deviation stays within a small multiple of
// the float32 epsilon at the output's own magnitude, amplified as it
// propagates through downstream layers — the bound takes a conservative
// multiple of the summed per-PE magnitudes (the same accounting pattern as
// QuantErrorBound). Zero when no layer ran in winograd mode; on mixed int8
// + winograd runs, add QuantErrorBound for the total tolerance.
func (s *RunStats) WinogradErrorBound() float64 {
	const eps32 = 1.0 / (1 << 23)
	var sum float64
	for i := range s.PEs {
		sum += s.PEs[i].MaxWinogradMag
	}
	return 256 * eps32 * sum
}

// BottleneckCycles returns the largest per-image cycle count among the PEs:
// the steady-state initiation interval of the high-level pipeline.
func (s *RunStats) BottleneckCycles() int64 {
	var max int64
	for i := range s.PEs {
		if c := s.PEs[i].CyclesPerImage(); c > max {
			max = c
		}
	}
	return max
}

// TotalMACs returns the MAC operations executed across all PEs.
func (s *RunStats) TotalMACs() int64 {
	var n int64
	for i := range s.PEs {
		n += s.PEs[i].MACs
	}
	return n
}

// Run executes a batch of images on the fabric and returns the outputs in
// input order, with stats carrying per-PE cycle counts and DDR traffic for
// the batch. It is a one-shot session (OpenSession + RunBatch + Close):
// workers run the images to completion PE by PE, and the device's pipeline
// is modeled by the counters — the same outputs, stream word totals and
// modeled cycles as the word-at-a-time path, which is retained behind
// RunWords as the equivalence oracle. Callers running many batches should
// hold a Session open instead, which amortizes the setup across batches.
func (a *Accelerator) Run(batch []*tensor.Tensor) ([]*tensor.Tensor, *RunStats, error) {
	if len(batch) == 0 {
		return nil, &RunStats{}, nil
	}
	s := a.OpenSession()
	outs, stats, err := s.RunBatch(batch)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return outs, stats, nil
}

// RunWords executes the batch on the word-at-a-time oracle: a goroutine per
// PE, joined by FIFOs that move one word per operation, the granularity of
// the modeled hardware, with no frame headers, always in float32. Tests hold
// a session's outputs and schedule-booked counters to it (bit-identical on
// the float32 datapath, within QuantErrorBound on the int8 one); production
// callers should use Run.
func (a *Accelerator) RunWords(batch []*tensor.Tensor) ([]*tensor.Tensor, *RunStats, error) {
	return a.runWords(batch)
}

// runWords is the unframed word-at-a-time oracle. It is deliberately the
// original one-shot feeder/PE/collector spawn-and-join loop — the session
// in session.go is measured against it.
func (a *Accelerator) runWords(batch []*tensor.Tensor) ([]*tensor.Tensor, *RunStats, error) {
	if len(batch) == 0 {
		return nil, &RunStats{}, nil
	}
	spec := a.Spec
	in := spec.Input
	for i, img := range batch {
		s := img.Shape()
		if len(s) != 3 || s[0] != in.Channels || s[1] != in.Height || s[2] != in.Width {
			return nil, nil, fmt.Errorf("dataflow: image %d has shape %v, accelerator input is %v", i, s, in)
		}
	}

	stats := &RunStats{Images: len(batch), PEs: make([]PEStats, len(spec.PEs))}
	errs := make(chan error, len(spec.PEs)+2)
	dm := &datamover{}
	dm.read(a.configLoad)

	// Streaming FIFOs: datamover → pe0 → pe1 → … → datamover.
	fifos := make([]*fifo.FIFO, len(spec.PEs)+1)
	for i := range fifos {
		fifos[i] = fifo.New(fmt.Sprintf("stream%d", i), spec.InterPEFIFODepth)
	}

	var wg sync.WaitGroup

	// Feeder: the datamover streams every image from on-board memory, one
	// word per push.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer fifos[0].Close()
		for _, img := range batch {
			dm.read(4 * int64(img.Len()))
			for _, v := range img.Data() {
				fifos[0].Push(v)
			}
		}
	}()

	// One goroutine per PE.
	for i, pe := range spec.PEs {
		stats.PEs[i].ID = pe.ID
		exec := &peExecWords{pe: pe, plan: &a.plan[i], dm: dm, in: fifos[i], out: fifos[i+1], stats: &stats.PEs[i]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := exec.run(len(batch)); err != nil {
				errs <- err
			}
		}()
	}

	// Collector: the datamover writes outputs back to on-board memory.
	outShape := spec.OutputShape()
	outputs := make([]*tensor.Tensor, len(batch))
	wg.Add(1)
	go func() {
		defer wg.Done()
		sink := fifos[len(fifos)-1]
		for b := range outputs {
			t := tensor.New(outShape.Channels, outShape.Height, outShape.Width)
			data := t.Data()
			for j := range data {
				v, ok := sink.Pop()
				if !ok {
					errs <- fmt.Errorf("dataflow: output stream ended at image %d element %d", b, j)
					return
				}
				data[j] = v
			}
			dm.write(4 * int64(len(data)))
			outputs[b] = t
		}
		// Anything extra indicates a shape accounting bug. Drain the sink
		// synchronously so no goroutine outlives the run: the last PE has
		// closed (or will close) its output FIFO, so the drain terminates.
		if _, ok := sink.Pop(); ok {
			errs <- fmt.Errorf("dataflow: accelerator produced more output words than %d images require", len(outputs))
			sink.Drain()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	stats.DRAM = dm.stats()
	for _, f := range fifos {
		stats.Streams = append(stats.Streams, StreamStats{Stats: f.Stats()})
	}
	return outputs, stats, nil
}
