package dataflow

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/tensor"
)

// These tests pin the invariant of the resident session: a Session fed the
// same images in several back-to-back RunBatch calls must agree with one
// word-at-a-time oracle pass over the whole sequence — bit-identical outputs
// and identical cumulative RunStats on the float32 path (the session books
// its modeled frame headers in separate counters, so its datapath word
// totals equal the oracle's, which streams no headers), bounded error on the
// packed int8 path. Teardown is part of the contract too: a failing worker
// fails the session and leaks nothing.

// chunkBatch splits a batch into uneven consecutive chunks (1, 2, 3, …) so
// the sweep exercises single-image and multi-image batches in one session
// lifetime.
func chunkBatch(batch []*tensor.Tensor) [][]*tensor.Tensor {
	var chunks [][]*tensor.Tensor
	for size := 1; len(batch) > 0; size++ {
		if size > len(batch) {
			size = len(batch)
		}
		chunks = append(chunks, batch[:size])
		batch = batch[size:]
	}
	return chunks
}

// runStreamCase executes one {Par, CUs, dtype} point: the streaming side
// feeds the batch in uneven chunks through a resident session of the last of
// cus replicated compute units (replica), the oracle side runs one unframed
// word-at-a-time pass over everything.
func runStreamCase(t *testing.T, ir *condorir.Network, ws *condorir.WeightSet, batch []*tensor.Tensor, par condorir.Parallelism, cus int, int8path bool) {
	t.Helper()
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	if int8path {
		spec.WordBits = 8
	}
	for _, pe := range spec.PEs {
		pe.Par = par
	}
	streamAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	oracleAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	sess := replica(t, streamAcc, cus).OpenSession()
	var gotOut []*tensor.Tensor
	for _, chunk := range chunkBatch(batch) {
		outs, _, err := sess.RunBatch(chunk)
		if err != nil {
			t.Fatalf("streaming chunk: %v", err)
		}
		gotOut = append(gotOut, outs...)
	}
	gotStats := sess.Stats()
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	wantOut, wantStats, err := oracleAcc.RunWords(batch)
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}

	if !int8path {
		assertRunsIdentical(t, "stream", gotOut, gotStats, "word", wantOut, wantStats)
		assertFramedStreams(t, gotStats, len(batch))
		return
	}
	// Packed path: bounded error against the float oracle, like runQuantCase.
	tol := gotStats.QuantErrorBound()
	if tol <= 0 {
		t.Fatalf("QuantErrorBound = %g, want positive", tol)
	}
	if len(gotOut) != len(wantOut) {
		t.Fatalf("output count %d vs %d", len(gotOut), len(wantOut))
	}
	agree := 0
	for i := range gotOut {
		if d := tensor.MaxAbsDiff(gotOut[i], wantOut[i]); d > tol {
			t.Errorf("image %d: max abs diff %g exceeds quant error bound %g", i, d, tol)
		}
		if gotOut[i].ArgMax() == wantOut[i].ArgMax() {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(gotOut)); frac < 0.75 {
		t.Errorf("argmax agreement %.2f below 0.75 (%d/%d images)", frac, agree, len(gotOut))
	}
	assertFramedStreams(t, gotStats, len(batch))
}

// assertFramedStreams asserts the session booked its modeled frames: one
// header word per image on each side of every stream edge.
func assertFramedStreams(t *testing.T, stats *RunStats, images int) {
	t.Helper()
	for i, s := range stats.Streams {
		if s.HeaderPushes != int64(images) || s.HeaderPops != int64(images) {
			t.Errorf("stream %d: %d header pushes / %d pops, want %d each", i, s.HeaderPushes, s.HeaderPops, images)
		}
	}
}

func TestStreamingEquivalenceTC1(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.USPSImages(6, 7)
	for _, dtype := range []string{"float32", "int8"} {
		for _, in := range []int{1, 2, 4} {
			for _, out := range []int{1, 2, 4} {
				for _, cus := range []int{1, 2, 4} {
					name := fmt.Sprintf("dtype=%s/in=%d/out=%d/cus=%d", dtype, in, out, cus)
					t.Run(name, func(t *testing.T) {
						runStreamCase(t, ir, ws, batch, condorir.Parallelism{In: in, Out: out}, cus, dtype == "int8")
					})
				}
			}
		}
	}
}

func TestStreamingEquivalenceLeNet(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.MNISTImages(4, 11)
	for _, dtype := range []string{"float32", "int8"} {
		for _, p := range []int{1, 2, 4} {
			name := fmt.Sprintf("dtype=%s/in=%d/out=%d/cus=%d", dtype, p, p, p)
			t.Run(name, func(t *testing.T) {
				runStreamCase(t, ir, ws, batch, condorir.Parallelism{In: p, Out: p}, p, dtype == "int8")
			})
		}
	}
}

// A session fed batch=1 repeatedly must degenerate to today's one-shot Run
// behavior bit-identically: same outputs image for image, and cumulative
// session stats identical to one oracle pass over the sequence.
func TestStreamingBatch1Degenerates(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	sessAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	oneShotAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	oracleAcc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	batch := models.USPSImages(4, 7)
	s := sessAcc.OpenSession()
	var sessOut []*tensor.Tensor
	var sessStats *RunStats
	for i, img := range batch {
		outs, st, err := s.RunBatch(batch[i : i+1])
		if err != nil {
			t.Fatalf("session image %d: %v", i, err)
		}
		sessOut = append(sessOut, outs...)
		sessStats = st

		oneOut, _, err := oneShotAcc.Run([]*tensor.Tensor{img})
		if err != nil {
			t.Fatalf("one-shot image %d: %v", i, err)
		}
		if d := tensor.MaxAbsDiff(outs[0], oneOut[0]); d != 0 {
			t.Fatalf("image %d: session batch=1 differs from one-shot Run by %g", i, d)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wantOut, wantStats, err := oracleAcc.RunWords(batch)
	if err != nil {
		t.Fatal(err)
	}
	assertRunsIdentical(t, "session", sessOut, sessStats, "word", wantOut, wantStats)
}

// A worker that panics fails the session instead of crashing the process:
// at GOMAXPROCS 1, 2 and 16 a panic at image 5 of PE 1 in a 12-image batch
// makes RunBatch return an error naming the PE and the image, later calls
// fail fast, Close joins every helper and re-reports it, and no goroutine of
// the package outlives the session.
func TestSessionWorkerPanicIsError(t *testing.T) {
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
	batch := models.USPSImages(12, 7)
	const pe, img = 1, 5
	for _, procs := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			baseline := packageGoroutines()
			s := acc.OpenSession()
			PanicAt(s, pe, img)
			_, _, err := s.RunBatch(batch)
			want := fmt.Sprintf("%s: image %d: panic", spec.PEs[pe].ID, img)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("RunBatch returned %v, want an error containing %q", err, want)
			}
			if _, _, err2 := s.RunBatch(batch[:1]); err2 == nil {
				t.Fatal("RunBatch on a failed session did not fail fast")
			}
			if cerr := s.Close(); cerr == nil || cerr.Error() != err.Error() {
				t.Fatalf("Close returned %v, want the session failure %v", cerr, err)
			}
			// Close has joined every helper; poll briefly to let the runtime
			// retire stacks that are mid-exit.
			for deadline := time.Now().Add(5 * time.Second); packageGoroutines() != baseline; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines of the package after Close, %d before OpenSession", packageGoroutines(), baseline)
				}
			}
		})
	}
}

// RunInto is RunBatch on flat words: on TC1 and LeNet, float32 and packed
// int8, a session fed back-to-back buffers gives the outputs and cumulative
// stats a session fed the same images as tensors gives. A ragged input or a
// short output is refused before anything is fed, and on the packed
// datapath so is a NaN, leaving the session to serve the next batch.
func TestRunIntoMatchesRunBatch(t *testing.T) {
	tc1, tc1W, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	lenet, lenetW, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct {
		name  string
		ir    *condorir.Network
		ws    *condorir.WeightSet
		batch []*tensor.Tensor
	}{
		{"tc1", tc1, tc1W, models.USPSImages(3, 7)},
		{"lenet", lenet, lenetW, models.MNISTImages(3, 11)},
	} {
		for _, bits := range []int{32, 8} {
			t.Run(fmt.Sprintf("%s/bits%d", n.name, bits), func(t *testing.T) {
				spec, err := BuildSpec(n.ir)
				if err != nil {
					t.Fatal(err)
				}
				spec.WordBits = bits
				open := func() *Session {
					acc, err := Instantiate(spec, n.ws)
					if err != nil {
						t.Fatal(err)
					}
					return acc.OpenSession()
				}
				ref, flat := open(), open()
				defer ref.Close()
				defer flat.Close()
				var in []float32
				for _, img := range n.batch {
					in = append(in, img.Data()...)
				}
				out := make([]float32, len(n.batch)*spec.OutputShape().Volume())
				for _, bad := range []struct {
					name    string
					in, out []float32
				}{
					{"ragged input", in[:len(in)-1], out},
					{"short output", in, out[:len(out)-1]},
				} {
					if err := flat.RunInto(bad.in, bad.out); err == nil {
						t.Fatalf("%s accepted", bad.name)
					}
				}
				if bits == 8 {
					poisoned := append([]float32(nil), in...)
					poisoned[len(in)/2] = float32(math.NaN())
					if err := flat.RunInto(poisoned, out); !errors.Is(err, ErrNonFiniteInput) {
						t.Fatalf("NaN input: %v, want ErrNonFiniteInput", err)
					}
				}
				for round := 0; round < 2; round++ {
					want, wantStats, err := ref.RunBatch(n.batch)
					if err != nil {
						t.Fatal(err)
					}
					if err := flat.RunInto(in, out); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					stats := flat.Stats()
					o := spec.OutputShape()
					got := tensor.Views(out, o.Channels, o.Height, o.Width)
					assertRunsIdentical(t, "RunInto", got, stats, "RunBatch", want, wantStats)
					if stats.InputScale != wantStats.InputScale {
						t.Fatalf("round %d: input scale %v, RunBatch %v", round, stats.InputScale, wantStats.InputScale)
					}
				}
			})
		}
	}
}
