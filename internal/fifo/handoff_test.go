package fifo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The rendezvous hand-off (a pending burst, a waiting buffer) must be
// indistinguishable from a FIFO that moves one word per synchronisation:
// these tests drive both with the same two-sided schedules and compare what
// the consumer saw and what the counters booked.

// Call kinds of a schedule: one Push/Pop per word, or the slice calls
// (PushSlice; PopSlice on the consumer, PopInto too).
const (
	callWord = iota
	callSlice
	callInto // consumer only
)

type call struct{ kind, n int }

// schedule is a producer's calls and the consumer's calls over the same
// words: every producer call is matched by consumer calls that take exactly
// its words, split differently.
type schedule struct {
	depth    int
	producer []call
	consumer []call
}

// script reads a schedule's choices from bytes, 0 once they run out.
type script []byte

func (s *script) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	v := int((*s)[0]) % n
	*s = (*s)[1:]
	return v
}

// scheduleFrom builds a schedule from bytes: bursts of 1 to 2048 words, so
// they straddle every depth, each split on the consumer side into up to four
// calls of any kind.
func scheduleFrom(depth int, data []byte) schedule {
	s := script(data)
	sc := schedule{depth: depth}
	for len(s) > 0 {
		kind := []int{callWord, callSlice}[s.next(2)]
		n := 1 + s.next(256)*(1+s.next(8))
		if kind == callWord {
			n = 1 + n%64
		}
		sc.producer = append(sc.producer, call{kind, n})
		for n > 0 {
			m := n
			if parts := s.next(4); parts > 0 {
				m = 1 + s.next(n)
			}
			kind := []int{callWord, callSlice, callInto}[s.next(3)]
			if kind == callWord {
				m = min(m, 64)
			}
			sc.consumer = append(sc.consumer, call{kind, m})
			n -= m
		}
	}
	return sc
}

// wordFIFO is the reference: a Go channel moving one word per operation,
// booking the counters as the documented rules say.
type wordFIFO struct {
	ch chan Word

	mu           sync.Mutex
	pushes, pops int64
}

// The two FIFOs under one interface, so one driver runs both.
type schedFIFO interface {
	Push(Word)
	PushSlice([]Word)
	Close()
	Pop() (Word, bool)
	PopSlice([]Word) (int, bool)
	PopInto([]Word) int
}

func (r *wordFIFO) book(c *int64, n int64) {
	r.mu.Lock()
	*c += n
	r.mu.Unlock()
}

func (r *wordFIFO) Push(v Word) { r.ch <- v; r.book(&r.pushes, 1) }
func (r *wordFIFO) PushSlice(vs []Word) {
	for _, v := range vs {
		r.Push(v)
	}
}
func (r *wordFIFO) Close() { close(r.ch) }
func (r *wordFIFO) Pop() (Word, bool) {
	v, ok := <-r.ch
	if ok {
		r.book(&r.pops, 1)
	}
	return v, ok
}
func (r *wordFIFO) PopSlice(dst []Word) (int, bool) {
	v, ok := r.Pop()
	if !ok {
		return 0, false
	}
	dst[0] = v
	n := 1
	for ; n < len(dst); n++ {
		select {
		case v, ok := <-r.ch:
			if !ok {
				return n, true
			}
			r.book(&r.pops, 1)
			dst[n] = v
		default:
			return n, true
		}
	}
	return n, true
}
func (r *wordFIFO) PopInto(dst []Word) int {
	for i := range dst {
		v, ok := r.Pop()
		if !ok {
			return i
		}
		dst[i] = v
	}
	return len(dst)
}

func (r *wordFIFO) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{Pushes: r.pushes, Pops: r.pops}
}

// runSchedule streams words numbered from 0 through q as the schedule says
// and returns the bits of every word the consumer received, in order.
func runSchedule(t testing.TB, q schedFIFO, sc schedule) []uint32 {
	go func() {
		next := 0
		for _, c := range sc.producer {
			vs := make([]Word, c.n)
			for j := range vs {
				vs[j] = Word(next + j)
			}
			next += c.n
			switch c.kind {
			case callWord:
				for _, v := range vs {
					q.Push(v)
				}
			case callSlice:
				q.PushSlice(vs)
			}
		}
		q.Close()
	}()
	var got []uint32
	buf := make([]Word, 2048)
	for _, c := range sc.consumer {
		dst := buf[:c.n]
		switch c.kind {
		case callWord:
			for range dst {
				v, ok := q.Pop()
				if !ok {
					t.Fatal("Pop: the stream ended early")
				}
				got = append(got, math.Float32bits(v))
			}
			continue
		case callSlice:
			for k := 0; k < c.n; {
				n, ok := q.PopSlice(dst[k:])
				if !ok {
					t.Fatal("PopSlice: the stream ended early")
				}
				k += n
			}
		case callInto:
			if n := q.PopInto(dst); n != c.n {
				t.Fatalf("PopInto: %d of %d words", n, c.n)
			}
		}
		for _, v := range dst {
			got = append(got, math.Float32bits(v))
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("a word arrived after the schedule's last")
	}
	return got
}

// checkAgainstReference runs the schedule through a FIFO and through the
// word reference, taking Stats snapshots of the FIFO throughout, and fails
// on any difference in the words or the totals, or on a snapshot whose ring
// high-water mark exceeds the depth.
func checkAgainstReference(t testing.TB, sc schedule) {
	f := New("handoff", sc.depth)
	stop := make(chan struct{})
	snaps := make(chan error, 1)
	go func() {
		var err error
		for {
			select {
			case <-stop:
				snaps <- err
				return
			default:
			}
			if s := f.Stats(); err == nil && (s.MaxOccupancy > int64(sc.depth) || s.Pops > s.Pushes) {
				err = fmt.Errorf("snapshot %+v: ring high-water mark over depth %d, or pops ahead of pushes", s, sc.depth)
			}
		}
	}()
	got := runSchedule(t, f, sc)
	close(stop)
	if err := <-snaps; err != nil {
		t.Fatal(err)
	}
	ref := &wordFIFO{ch: make(chan Word, sc.depth)}
	want := runSchedule(t, ref, sc)
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("depth %d: %d words received, the reference %d; first difference at word %d", sc.depth, len(got), len(want), i)
	}
	gs, ws := f.Stats(), ref.Stats()
	gs.Name, gs.Depth, gs.PushBursts, gs.PopBursts, gs.MaxOccupancy = "", 0, 0, 0, 0
	if gs != ws {
		t.Fatalf("depth %d: totals %+v, the reference's %+v", sc.depth, gs, ws)
	}
}

// TestHandOffMatchesWordReference: random two-sided schedules over every
// call kind, at depths 1, 2, 7 and 512, give the word reference's words and
// totals.
func TestHandOffMatchesWordReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, depth := range []int{1, 2, 7, 512} {
		for run := 0; run < 20; run++ {
			data := make([]byte, 40+rng.Intn(80))
			rng.Read(data)
			checkAgainstReference(t, scheduleFrom(depth, data))
		}
	}
}

// FuzzFIFOHandOff turns the fuzz bytes into a two-sided schedule (the first
// byte picks the depth) and checks it against the word reference.
func FuzzFIFOHandOff(f *testing.F) {
	f.Add([]byte{3, 1, 200, 7, 2, 5, 9, 3, 0, 1, 40, 2, 2, 0})
	f.Add([]byte{0, 2, 255, 7, 0, 3, 1, 4, 0})
	f.Add([]byte{1, 0, 3, 3, 1, 1, 1, 2, 100, 3, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		depth := []int{1, 2, 7, 512}[int(data[0])%4]
		checkAgainstReference(t, scheduleFrom(depth, data[1:]))
	})
}

// awaitLocked polls until cond holds under the FIFO's lock: the way a test
// knows a peer is blocked inside a burst call.
func awaitLocked(t *testing.T, f *FIFO, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		f.mu.Lock()
		ok := cond()
		f.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func counting(n int) []Word {
	vs := make([]Word, n)
	for i := range vs {
		vs[i] = Word(i)
	}
	return vs
}

// A consumer already blocked in PopInto for a LeNet conv1 frame (11 520
// words) on a depth-512 FIFO receives it in one hand-off: one push burst,
// one pop burst, nothing through the ring.
func TestHandOffBlockedConsumerOneBurst(t *testing.T) {
	const words = 11520
	f := New("conv1", 512)
	dst := make([]Word, words)
	got := make(chan int)
	go func() { got <- f.PopInto(dst) }()
	awaitLocked(t, f, "the consumer's waiting buffer", f.wait.active)
	f.PushSlice(counting(words))
	if n := <-got; n != words {
		t.Fatalf("PopInto = %d, want %d", n, words)
	}
	if !slices.Equal(dst, counting(words)) {
		t.Fatal("the frame arrived changed")
	}
	s := f.Stats()
	if s.PushBursts != 1 || s.PopBursts != 1 || s.Pushes != words || s.Pops != words || s.MaxOccupancy != 0 {
		t.Fatalf("stats %+v: want one burst each way, %d words, an untouched ring", s, words)
	}
}

// pendingProducer starts a producer pushing n words into a depth-4 FIFO and
// returns once the words past the ring wait as the pending burst; done is
// closed when PushSlice returns.
func pendingProducer(t *testing.T, n int) (f *FIFO, done chan struct{}) {
	f = New("pend", 4)
	done = make(chan struct{})
	go func() {
		f.PushSlice(counting(n))
		close(done)
	}()
	awaitLocked(t, f, "the producer's pending burst", f.pendingLocked)
	return f, done
}

func awaitDone(t *testing.T, done chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not release the producer", what)
	}
}

// A producer blocked with a pending burst is released by Drain and by a
// PopSlice that takes the pending words, each in one call.
func TestHandOffPendingReleased(t *testing.T) {
	f, done := pendingProducer(t, 20)
	go func() {
		<-done
		f.Close()
	}()
	if n := f.Drain(); n != 20 {
		t.Fatalf("Drain discarded %d words, want 20", n)
	}
	awaitDone(t, done, "Drain")

	f, done = pendingProducer(t, 20)
	dst := make([]Word, 32)
	if n, ok := f.PopSlice(dst); !ok || n != 20 || !slices.Equal(dst[:n], counting(20)) {
		t.Fatalf("PopSlice = %d, %v, %v: want the 4 ring words and the 16 pending ones", n, ok, dst[:n])
	}
	awaitDone(t, done, "PopSlice")
	if s := f.Stats(); s.Pushes != 20 || s.Pops != 20 || s.PushBursts != 2 || s.PopBursts != 2 {
		t.Fatalf("stats %+v: want a ring burst and a hand-off each way", s)
	}
}

// A push after Close still panics, and so does a producer whose pending
// burst is still untaken when the FIFO closes.
func TestHandOffPushAfterClosePanics(t *testing.T) {
	f := New("closed", 4)
	f.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PushSlice after Close did not panic")
			}
		}()
		f.PushSlice(counting(10))
	}()

	f = New("closing", 4)
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		f.PushSlice(counting(10))
	}()
	awaitLocked(t, f, "the producer's pending burst", f.pendingLocked)
	f.Close()
	select {
	case r := <-panicked:
		if r == nil || !strings.Contains(fmt.Sprintf("%v", r), "push after close") {
			t.Fatalf("blocked producer after Close: recovered %v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the blocked producer never woke on Close")
	}
}
