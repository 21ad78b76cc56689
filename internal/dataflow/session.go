package dataflow

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"condor/internal/fifo"
	"condor/internal/tensor"
)

// Session is a resident instance of the fabric that runs batches to
// completion on workers: the caller's goroutine is worker 0, and the first
// batch of more than one image starts runtime.GOMAXPROCS(0)−1 resident
// helpers. Each worker owns one executor per PE. A batch of n images is cut
// into chunks of min(convLanes, ⌈n/workers⌉) images; a worker takes the next
// chunk, stages its images, runs the chunk through each PE in turn and
// writes the outputs, until none is left. Images never share a result, so
// outputs do not depend on which worker ran which chunk.
//
// The device's pipeline is modeled, not re-enacted: every counter Stats
// reports is the PEs' schedule times the images run, plus what the workers
// measure (the int8 scales and the Winograd magnitudes).
//
// RunInto (flat words) and RunBatch (tensors) block until the batch is done;
// Close joins the helpers and reports any failure. Accelerator.Run is
// OpenSession + RunBatch + Close; throughput callers hold a session open and
// amortize its setup (executor scratch, helper start) over the stream.
type Session struct {
	acc    *Accelerator
	packed bool
	inVol  int
	outVol int

	// workers[0] runs on the caller's goroutine; workers[k] for k ≥ 1 is a
	// resident helper, woken by wake[k-1] once per batch it joins.
	workers []runner
	wake    []chan struct{}
	helpers sync.WaitGroup // the helper goroutines, joined by Close
	joined  sync.WaitGroup // the helpers woken for the batch in flight

	job    job
	images int // images run over the session

	failed atomic.Bool
	err    error // the first failure, written once by the worker that set failed

	runMu  sync.Mutex // serializes batches, Stats and Close
	closed bool       // runMu-guarded

	// testPanic, when set by tests, is called as a worker starts PE pe on
	// image img of a batch: the hook a worker-failure test panics from.
	testPanic func(pe, img int)
}

// job is the batch in flight: its images (flat back-to-back volumes, or
// tensors), the output words and the chunking. Workers take chunks by
// advancing next.
type job struct {
	flat    []float32
	tensors []*tensor.Tensor
	out     []float32
	n       int
	chunk   int
	next    atomic.Int64
}

// image returns image i's input words.
func (j *job) image(i, vol int) []float32 {
	if j.tensors != nil {
		return j.tensors[i].Data()
	}
	return j.flat[i*vol : (i+1)*vol]
}

// runner is a worker of either element type as the session drives it.
type runner interface {
	// work takes chunks of the batch until none is left or the session has
	// failed; a panic fails the session instead of crashing the process.
	work(j *job)
	// fold folds what the worker measured into st.
	fold(st *RunStats)
}

// ErrNonFiniteInput is returned (wrapped) by RunInto and RunBatch on the
// packed datapath for a NaN or infinite pixel; nothing runs and the session
// stays usable.
var ErrNonFiniteInput = errors.New("non-finite value cannot be quantized")

// OpenSession brings the fabric up with worker 0's executors prepared and no
// goroutine started. The caller must Close the session to join the helpers a
// multi-image batch starts.
func (a *Accelerator) OpenSession() *Session {
	s := &Session{
		acc:    a,
		packed: a.Spec.WordBits == 8,
		inVol:  a.Spec.Input.Volume(),
		outVol: a.Spec.OutputShape().Volume(),
	}
	s.workers = []runner{s.newWorker()}
	return s
}

// newWorker builds a worker of the session's element type.
func (s *Session) newWorker() runner {
	if s.packed {
		return newWorker(s, newI8Exec)
	}
	return newWorker(s, newF32Exec)
}

// startHelpers starts a resident helper per processor beyond the caller's.
func (s *Session) startHelpers() {
	for k := 1; k < runtime.GOMAXPROCS(0); k++ {
		w, wake := s.newWorker(), make(chan struct{})
		s.workers = append(s.workers, w)
		s.wake = append(s.wake, wake)
		s.helpers.Add(1)
		go s.helper(w, wake)
	}
}

// helper runs w's share of every batch it is woken for, until Close closes
// wake.
func (s *Session) helper(w runner, wake <-chan struct{}) {
	defer s.helpers.Done()
	for range wake {
		w.work(&s.job)
		s.joined.Done()
	}
}

// fail latches the session's first failure.
func (s *Session) fail(err error) {
	if s.failed.CompareAndSwap(false, true) {
		s.err = err
	}
}

// RunBatch runs a batch and returns the outputs in input order as views of
// one array (tensor.Views), with the session-cumulative stats.
func (s *Session) RunBatch(batch []*tensor.Tensor) ([]*tensor.Tensor, *RunStats, error) {
	in := s.acc.Spec.Input
	for i, img := range batch {
		if sh := img.Shape(); len(sh) != 3 || sh[0] != in.Channels || sh[1] != in.Height || sh[2] != in.Width {
			return nil, nil, fmt.Errorf("dataflow: image %d has shape %v, accelerator input is %v", i, sh, in)
		}
	}
	out := make([]float32, len(batch)*s.outVol)
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.job.flat, s.job.tensors = nil, batch
	if err := s.run(len(batch), out); err != nil {
		return nil, nil, err
	}
	o := s.acc.Spec.OutputShape()
	return tensor.Views(out, o.Channels, o.Height, o.Width), s.stats(), nil
}

// RunInto runs the images stored back-to-back in in and writes their outputs
// back-to-back into out. len(in) must be a whole number of input volumes and
// out must hold that many output volumes. It builds no stats: a caller that
// wants the counters asks Stats. The session survives input-validation
// errors (a wrong size, or ErrNonFiniteInput on the packed datapath); a
// failure while running is fatal to the session and re-reported by Close.
func (s *Session) RunInto(in, out []float32) error {
	n := len(in) / s.inVol
	if len(in)%s.inVol != 0 || len(out) < n*s.outVol {
		return fmt.Errorf("dataflow: %d input words for %d-word images and %d output words for %d-word outputs", len(in), s.inVol, len(out), s.outVol)
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.job.flat, s.job.tensors = in, nil
	return s.run(n, out[:n*s.outVol])
}

// run runs the n images of s.job into out. The caller holds runMu.
func (s *Session) run(n int, out []float32) error {
	defer func() { s.job.flat, s.job.tensors, s.job.out = nil, nil, nil }()
	if s.closed {
		return fmt.Errorf("dataflow: run on a closed session")
	}
	if s.failed.Load() {
		return s.err
	}
	if n == 0 {
		return nil
	}
	for i := 0; i < n && s.packed; i++ {
		// An image's scale is calibrated from its largest magnitude: an
		// infinity makes every code garbage, and a NaN reaches a float→int
		// conversion Go leaves implementation-defined.
		for j, v := range s.job.image(i, s.inVol) {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("dataflow: image %d element %d is %v: %w", i, j, v, ErrNonFiniteInput)
			}
		}
	}
	if n > 1 && len(s.workers) == 1 {
		s.startHelpers()
	}
	j := &s.job
	j.out, j.n = out, n
	j.chunk = min(convLanes, (n+len(s.workers)-1)/len(s.workers))
	j.next.Store(0)
	woken := min(len(s.wake), (n+j.chunk-1)/j.chunk-1)
	s.joined.Add(woken)
	for _, wake := range s.wake[:woken] {
		wake <- struct{}{}
	}
	s.workers[0].work(j)
	s.joined.Wait()
	s.images += n
	if s.failed.Load() {
		return s.err
	}
	return nil
}

// Stats returns the session-cumulative RunStats without running anything.
func (s *Session) Stats() *RunStats {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.stats()
}

// stats assembles the session-cumulative RunStats: the schedule's counters
// times the images run, and the maxima the workers measured. The caller
// holds runMu, so no batch is in flight.
func (s *Session) stats() *RunStats {
	spec, n := s.acc.Spec, int64(s.images)
	st := &RunStats{Images: s.images, PEs: make([]PEStats, len(spec.PEs)), Streams: make([]StreamStats, len(spec.PEs)+1)}
	elem := int64(4 / spec.Lanes()) // bytes per element: a float32 word or an int8 code
	st.DRAM.BytesRead = s.acc.configLoad + n*elem*int64(s.inVol)
	st.DRAM.BytesWritten = n * elem * int64(s.outVol)
	for i, pe := range spec.PEs {
		ps := &st.PEs[i]
		ps.ID, ps.Images = pe.ID, n
		for li := range pe.Layers {
			ls := &s.acc.plan[i].layers[li]
			sc := &ls.sched
			ps.Cycles += n * (sc.Cycles() + sc.HandOff)
			ps.MACs += n * sc.MACs
			ps.WindowsRead += n * sc.Windows
			ps.SpilledPartial += n * sc.SpillWords
			// The weight re-read, the partial spill's round trip at 32 bits
			// and the fused hand-off's round trip at the element width.
			st.DRAM.BytesRead += n * (ls.streamBytes + 4*sc.SpillWords)
			st.DRAM.BytesWritten += n * 4 * sc.SpillWords
			if li < len(pe.Layers)-1 {
				handOff := n * elem * int64(pe.Layers[li].OutShape.Volume())
				st.DRAM.BytesRead += handOff
				st.DRAM.BytesWritten += handOff
			}
		}
		ps.ElemsIn = n * int64(pe.Layers[0].InShape.Volume())
		ps.ElemsOut = n * int64(pe.Layers[len(pe.Layers)-1].OutShape.Volume())
	}
	// Each edge carries one image per frame: a header word, then the
	// volume's words, or on the packed datapath a scale word and the packed
	// payload words whose lanes are the codes.
	for e := range st.Streams {
		vol := s.inVol
		if e > 0 {
			layers := spec.PEs[e-1].Layers
			vol = layers[len(layers)-1].OutShape.Volume()
		}
		words, lanes := int64(vol), int64(0)
		if s.packed {
			words, lanes = 1+int64(packedWords(vol)), int64(vol)
		}
		st.Streams[e] = StreamStats{
			Stats:      fifo.Stats{Name: fmt.Sprintf("stream%d", e), Depth: spec.InterPEFIFODepth, Pushes: n * words, Pops: n * words},
			LanePushes: n * lanes, LanePops: n * lanes, HeaderPushes: n, HeaderPops: n}
	}
	for _, w := range s.workers {
		w.fold(st)
	}
	return st
}

// Close joins every helper. A failure latched at any point in the session's
// life is returned; closing twice returns it again.
func (s *Session) Close() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if !s.closed {
		s.closed = true
		for _, wake := range s.wake {
			close(wake)
		}
		s.helpers.Wait()
	}
	if s.failed.Load() {
		return s.err
	}
	return nil
}

// worker runs chunks of a batch through its own executors, one per PE, over
// two sets of chunk volumes: a layer reads one side and writes the other.
type worker[E float32 | int8] struct {
	s      *Session
	pes    []*peExec[E]
	stride int          // elements per image in vols: the network's largest volume and poolSlack
	vols   [2][]E       // the chunk's images, stride elements apart, grown to the largest chunk
	scales [2][]float64 // the images' scales (int8 codes; zero for float32 words)

	inputScale float64 // the largest scale an image was quantized with (int8)
	pe, img    int     // where the worker is, for a panic's error: a PE index and a batch image
}

// newWorker builds a worker with its executors prepared and, with tracing
// on, one track per PE.
func newWorker[E float32 | int8](s *Session, newExec func(peBase) *peExec[E]) *worker[E] {
	a := s.acc
	w := &worker[E]{s: s, pes: make([]*peExec[E], 0, len(a.Spec.PEs))}
	for i, pe := range a.Spec.PEs {
		b := peBase{pe: pe, plan: &a.plan[i]}
		if a.tracer != nil {
			b.track = a.tracer.Track(a.trackPrefix + pe.ID)
		}
		x := newExec(b)
		x.prepare()
		w.pes = append(w.pes, x)
		w.stride = max(w.stride, a.plan[i].scratch.vol+poolSlack)
	}
	return w
}

func (w *worker[E]) work(j *job) {
	defer func() {
		if r := recover(); r != nil {
			w.s.fail(fmt.Errorf("dataflow: %s: image %d: panic: %v", w.pes[w.pe].pe.ID, w.img, r))
		}
	}()
	for !w.s.failed.Load() {
		first := int(j.next.Add(1)-1) * j.chunk
		if first >= j.n {
			return
		}
		w.runChunk(j, first, min(j.chunk, j.n-first))
	}
}

// runChunk stages images first..first+c-1, runs them through every PE and
// writes their outputs.
func (w *worker[E]) runChunk(j *job, first, c int) {
	if len(w.scales[0]) < c {
		for side := range w.vols {
			w.vols[side] = make([]E, c*w.stride)
			w.scales[side] = make([]float64, c)
		}
	}
	s := w.s
	w.pe, w.img = 0, first
	load := w.pes[0].el
	for i := 0; i < c; i++ {
		w.img = first + i
		w.scales[0][i] = load.load(w.vols[0][i*w.stride:], j.image(first+i, s.inVol))
		w.inputScale = max(w.inputScale, w.scales[0][i])
	}
	side := 0
	for p, x := range w.pes {
		w.pe = p
		for i := 0; s.testPanic != nil && i < c; i++ {
			w.img = first + i
			s.testPanic(p, first+i)
		}
		side = x.run(w, side, first, c)
	}
	store := w.pes[len(w.pes)-1].el
	for i := 0; i < c; i++ {
		store.store(j.out[(first+i)*s.outVol:][:s.outVol], w.vols[side][i*w.stride:], w.scales[side][i])
	}
}

func (w *worker[E]) fold(st *RunStats) {
	st.InputScale = max(st.InputScale, w.inputScale)
	for i, x := range w.pes {
		st.PEs[i].MaxRequantScale = max(st.PEs[i].MaxRequantScale, x.maxRequant)
		st.PEs[i].MaxWinogradMag = max(st.PEs[i].MaxWinogradMag, x.maxWinograd)
	}
}
