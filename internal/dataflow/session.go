package dataflow

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"condor/internal/fifo"
	"condor/internal/obs"
	"condor/internal/quant"
	"condor/internal/tensor"
)

// Session is a resident streaming instance of the fabric: every element
// (feeder, one goroutine per PE, collector) stays alive across batches, and
// consecutive images stream back-to-back through the layer pipeline without
// draining between them. Each image travels as an epoch-tagged frame
// (fifo.PushFrameHeader) so elements detect interleaving bugs instead of
// silently mixing images; on the packed int8 datapath the epoch header
// precedes the per-image scale word of the PR-8 frame layout.
//
// RunInto (flat words) and RunBatch (tensors) feed a batch into the
// running pipeline and block until every element has retired it; Close ends
// the stream, joins every goroutine and reports any deferred failure.
// Accelerator.Run is OpenSession + RunBatch + Close, so one-shot callers
// see exactly the old behavior; throughput callers hold a session open and
// amortize the fabric's fill/drain and setup (executor prepare, FIFO and
// scratch allocation, goroutine spawn) over the whole stream.
type Session struct {
	acc    *Accelerator
	packed bool
	fifos  []*fifo.FIFO

	feedQ    chan []float32 // one image's words
	collectQ chan []float32 // a batch's output words, one frame per image
	quit     chan struct{}  // closed on first element failure

	// mu guards the completion barrier and the failure latch. Elements
	// increment their done counter after finishing an image; RunBatch waits
	// until the slowest element catches up, which also orders every
	// element's stats writes before the snapshot RunBatch returns.
	mu   sync.Mutex
	cond *sync.Cond
	done []int // images retired per element: [feeder, PEs..., collector]
	err  error // sticky first failure

	fed        int // images fed over the session (runMu-guarded)
	peStats    []PEStats
	dm         datamover // the session's DDR traffic, from the configuration load on
	inputScale float64
	outShape   [3]int
	outVol     int

	runMu  sync.Mutex // serializes batches and Close
	closed bool       // runMu-guarded
	wg     sync.WaitGroup

	// testExpectEpoch, when set by tests, perturbs the epoch the collector
	// expects for a given image sequence number — the hook the mid-batch
	// error-cascade test uses to prove teardown leaks no goroutine.
	testExpectEpoch func(seq int, epoch uint16) uint16
}

// ErrNonFiniteInput is returned (wrapped) by RunInto and RunBatch on the
// packed datapath for a NaN or infinite pixel; nothing is fed and the
// session stays usable.
var ErrNonFiniteInput = errors.New("non-finite value cannot be quantized")

// OpenSession brings the fabric up as a resident streaming pipeline with no
// images in flight. The caller must Close the session to join its
// goroutines; errors detected mid-stream surface on the blocked RunBatch
// and again on Close.
func (a *Accelerator) OpenSession() *Session {
	spec := a.Spec
	s := &Session{
		acc:      a,
		packed:   spec.WordBits == 8,
		feedQ:    make(chan []float32),
		collectQ: make(chan []float32, 1),
		quit:     make(chan struct{}),
		done:     make([]int, len(spec.PEs)+2),
		peStats:  make([]PEStats, len(spec.PEs)),
	}
	s.cond = sync.NewCond(&s.mu)
	s.dm.read(a.configLoad)
	out := spec.OutputShape()
	s.outShape = [3]int{out.Channels, out.Height, out.Width}
	s.outVol = out.Volume()

	s.fifos = make([]*fifo.FIFO, len(spec.PEs)+1)
	for i := range s.fifos {
		s.fifos[i] = fifo.New(fmt.Sprintf("stream%d", i), spec.InterPEFIFODepth)
	}

	// One trace track per element, created up front so each goroutine owns
	// its track exclusively (single-writer, no locking on the record path).
	var feedTrack, sinkTrack *obs.Track
	peTracks := make([]*obs.Track, len(spec.PEs))
	if a.tracer != nil {
		feedTrack = a.tracer.Track(a.trackPrefix + "feeder")
		for i, pe := range spec.PEs {
			peTracks[i] = a.tracer.Track(a.trackPrefix + pe.ID)
		}
		sinkTrack = a.tracer.Track(a.trackPrefix + "collector")
	}

	s.wg.Add(1)
	go s.feeder(feedTrack)

	for i, pe := range spec.PEs {
		s.peStats[i].ID = pe.ID
		elem := 1 + i
		stream := peStream{pe: pe, plan: &a.plan[i], dm: &s.dm, in: s.fifos[i], out: s.fifos[i+1], stats: &s.peStats[i],
			track: peTracks[i], onImage: func() { s.imageDone(elem) }, onErr: s.fail}
		var run func() error
		if s.packed {
			run = newI8Exec(stream).runStream
		} else {
			run = newF32Exec(stream).runStream
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := run(); err != nil {
				s.fail(err)
			}
		}()
	}

	s.wg.Add(1)
	go s.collector(sinkTrack)
	return s
}

// imageDone advances one element's retirement counter and wakes the
// RunBatch barrier. Because the increment happens under mu after the
// element's stats writes for that image, a woken RunBatch observes every
// contributing write.
func (s *Session) imageDone(elem int) {
	s.mu.Lock()
	s.done[elem]++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail latches the first element failure and tells the fabric to wind down:
// the feeder closes the head FIFO on seeing quit, which cascades
// end-of-stream through every resident element.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		close(s.quit)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// failed reports the sticky error, if any.
func (s *Session) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// feeder streams every queued image from on-board memory into the head
// FIFO, one epoch-tagged frame per image. On the packed datapath it is the
// fabric's only float→int8 quantization point. It owns closing the head
// FIFO — on a clean Close (feedQ closed) and on failure (quit closed) —
// which is what guarantees every downstream drain terminates.
func (s *Session) feeder(track *obs.Track) {
	defer s.wg.Done()
	in := s.acc.Spec.Input
	head := s.fifos[0]
	var frame []fifo.Word // the packed datapath's frame buffer
	if s.packed {
		frame = make([]fifo.Word, 1+fifo.PackedWords(in.Volume()))
	}
	var epoch uint16
	for {
		// Prefer quit so a failed fabric stops consuming the queue promptly.
		select {
		case <-s.quit:
			head.Close()
			return
		default:
		}
		select {
		case <-s.quit:
			head.Close()
			return
		case img, ok := <-s.feedQ:
			if !ok {
				head.Close()
				return
			}
			sid := 0
			if track != nil {
				sid = track.Begin("feed", 0)
			}
			head.PushFrameHeader(epoch)
			if s.packed {
				scale := frameScale(img)
				quantizeCodes(int8Payload(frame, len(img)), img, scale)
				s.dm.read(int64(len(img)))
				pushInt8Frame(head, frame, len(img), scale)
				s.mu.Lock()
				if scale > s.inputScale {
					s.inputScale = scale
				}
				s.mu.Unlock()
			} else {
				s.dm.read(4 * int64(len(img)))
				head.PushSlice(img)
			}
			if track != nil {
				track.AddWords(sid, int64(len(img)))
				track.End(sid, 0)
			}
			epoch++
			s.imageDone(0)
		}
	}
}

// collector retires output frames from the tail FIFO into the posted
// output slices, validating the epoch sequence and dequantizing on the
// packed datapath. A mid-stream failure drains the tail synchronously so no
// upstream element can block on a full FIFO forever.
func (s *Session) collector(track *obs.Track) {
	defer s.wg.Done()
	sink := s.fifos[len(s.fifos)-1]
	elem := len(s.done) - 1
	var frame []fifo.Word // the packed datapath's frame buffer
	if s.packed {
		frame = make([]fifo.Word, 1+fifo.PackedWords(s.outVol))
	}
	seq := 0 // images retired over the session; low 16 bits = expected epoch
	for {
		out, ok := <-s.collectQ
		if !ok {
			// Clean shutdown: anything left in the tail stream is a shape
			// accounting bug. The blocking Pop terminates because Close has
			// already ended the feed, so end-of-stream cascades here.
			if _, ok := sink.Pop(); ok {
				s.fail(fmt.Errorf("dataflow: accelerator produced more output words than %d images require", seq))
				sink.Drain()
			}
			return
		}
		for ; len(out) > 0; out = out[s.outVol:] {
			if err := s.collectImage(sink, track, out[:s.outVol], seq, frame); err != nil {
				s.fail(err)
				sink.Drain()
				return
			}
			seq++
			s.imageDone(elem)
		}
	}
}

// collectImage retires one output frame into data.
func (s *Session) collectImage(sink *fifo.FIFO, track *obs.Track, data []float32, seq int, frame []fifo.Word) error {
	want := uint16(seq)
	if s.testExpectEpoch != nil {
		want = s.testExpectEpoch(seq, want)
	}
	epoch, ok, err := sink.PopFrameHeader()
	if !ok {
		return fmt.Errorf("dataflow: output stream ended before image %d", seq)
	}
	if err != nil {
		return fmt.Errorf("dataflow: collector: %w", err)
	}
	if epoch != want {
		return fmt.Errorf("dataflow: collector: frame epoch %d arrived, expected %d", epoch, want)
	}
	sid := 0
	if track != nil {
		sid = track.Begin("collect", 0)
	}
	if s.packed {
		// The collector is the fabric's only int8→float point: it
		// dequantizes the last PE's codes with the frame's scale, straight
		// from the frame buffer, before the output leaves the fabric.
		scale, err := popInt8Frame(sink, frame, len(data))
		if err != nil {
			return fmt.Errorf("dataflow: image %d: %w", seq, err)
		}
		quant.DequantizeInto(data, int8Payload(frame, len(data)), scale)
		s.dm.write(int64(len(data)))
	} else {
		if n := sink.PopInto(data); n < len(data) {
			return fmt.Errorf("dataflow: output stream ended at image %d element %d", seq, n)
		}
		s.dm.write(4 * int64(len(data)))
	}
	if track != nil {
		track.AddWords(sid, int64(len(data)))
		track.End(sid, 0)
	}
	return nil
}

// RunBatch streams a batch through the resident pipeline and blocks until
// every element has retired it, returning the outputs in input order as
// views of one array (tensor.Views). It is RunInto with each image fed from
// its tensor's words.
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
	if err := s.run(len(batch), func(i int) []float32 { return batch[i].Data() }, out); err != nil {
		return nil, nil, err
	}
	return tensor.Views(out, s.outShape[:]...), s.snapshotStats(), nil
}

// RunInto streams the images stored back-to-back in in through the resident
// pipeline and writes their outputs back-to-back into out, blocking until
// every element has retired the batch. len(in) must be a whole number of
// input volumes and out must hold that many output volumes. It builds no
// stats: a caller that wants the counters asks Stats. The session survives
// input-validation errors (a wrong size, or ErrNonFiniteInput on the packed
// datapath); any failure detected inside the fabric is fatal to the
// session, re-reported by Close, and may leave the fabric reading in until
// Close returns.
func (s *Session) RunInto(in, out []float32) error {
	inVol := s.acc.Spec.Input.Volume()
	n := len(in) / inVol
	if len(in)%inVol != 0 || len(out) < n*s.outVol {
		return fmt.Errorf("dataflow: %d input words for %d-word images and %d output words for %d-word outputs", len(in), inVol, len(out), s.outVol)
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.run(n, func(i int) []float32 { return in[i*inVol : (i+1)*inVol] }, out[:n*s.outVol])
}

// run feeds images img(0..n-1) and collects their outputs into out, one
// output volume per image. The caller holds runMu.
func (s *Session) run(n int, img func(int) []float32, out []float32) error {
	if s.closed {
		return fmt.Errorf("dataflow: run on a closed session")
	}
	if err := s.failed(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	for i := 0; i < n && s.packed; i++ {
		// The feeder calibrates an image's scale from its largest magnitude:
		// an infinity makes every code garbage, and a NaN reaches a float→int
		// conversion Go leaves implementation-defined.
		for j, v := range img(i) {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("dataflow: image %d element %d is %v: %w", i, j, v, ErrNonFiniteInput)
			}
		}
	}

	select {
	case s.collectQ <- out:
	case <-s.quit:
		return s.failed()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case s.feedQ <- img(i):
		case <-s.quit:
			break feed // the barrier below reports the failure
		}
	}
	s.fed += n
	target := s.fed

	s.mu.Lock()
	for s.minDoneLocked() < target && s.err == nil {
		s.cond.Wait()
	}
	err := s.err
	s.mu.Unlock()
	return err
}

// minDoneLocked returns the slowest element's retirement count.
func (s *Session) minDoneLocked() int {
	min := s.done[0]
	for _, d := range s.done[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// snapshotStats assembles the session-cumulative RunStats. Callers
// guarantee quiescence (no batch in flight).
func (s *Session) snapshotStats() *RunStats {
	stats := &RunStats{Images: s.fed, PEs: make([]PEStats, len(s.peStats)), Streams: make([]fifo.Stats, 0, len(s.fifos))}
	copy(stats.PEs, s.peStats)
	stats.DRAM = s.dm.stats()
	s.mu.Lock()
	stats.InputScale = s.inputScale
	s.mu.Unlock()
	for _, f := range s.fifos {
		stats.Streams = append(stats.Streams, f.Stats())
	}
	return stats
}

// Stats returns the session-cumulative RunStats without feeding anything.
// Only meaningful between RunBatch calls (no images in flight).
func (s *Session) Stats() *RunStats {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.snapshotStats()
}

// Close ends the stream: the feeder closes the head FIFO, end-of-stream
// cascades through every PE to the collector, and every session goroutine
// joins before Close returns. A failure latched at any point in the
// session's life — including surplus output words discovered during the
// final drain — is returned. Closing twice returns the latched error again.
func (s *Session) Close() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.closed {
		return s.failed()
	}
	s.closed = true
	close(s.feedQ)
	close(s.collectQ)
	s.wg.Wait()
	return s.failed()
}
