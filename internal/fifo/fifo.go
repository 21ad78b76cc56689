// Package fifo provides the bounded blocking FIFO channel that the Condor
// accelerator fabric is built from. The paper's architecture is "a
// distributed dataflow architecture of simple and independent elements
// communicating over FIFOs ... using blocking reads and writes"; this
// package is that primitive, with traffic counters (words, bursts and the
// ring's occupancy high-water mark). It carries the word-at-a-time oracle
// (dataflow's RunWords) and its stencil chains; a session books its stream
// traffic from the schedule instead.
//
// The implementation is a mutex+condvar ring buffer rather than a Go
// channel: alongside the word-granularity Push/Pop of the hardware model it
// exposes burst transfers (PushSlice, PopSlice, PopInto) that move many
// words per synchronisation, the way Caffeine-class accelerators batch
// their DDR traffic. Bursts are a host-simulation optimisation only — the
// traffic counters advance by exactly the same totals as the equivalent
// word-at-a-time sequence, so the modeled quantities are unchanged.
package fifo

import (
	"fmt"
	"sync"
)

// Word is the data type carried by fabric FIFOs: single-precision floating
// point, the numeric format of the paper's accelerator.
type Word = float32

// FIFO is a bounded, blocking, closeable queue of Words. Push blocks while
// the FIFO is full; Pop blocks while it is empty and no writer has closed
// it. It is safe for concurrent producers and consumers, though the fabric
// uses it point-to-point (one producer, one consumer).
//
// A burst call meets a blocked peer instead of trading depth-sized chunks
// with it (DESIGN §10): the words of a PushSlice that do not fit in the ring
// wait as the pending burst, and a PopInto that finds nothing to take waits
// with the rest of its destination as the waiting buffer. Ring words are
// older than pending ones, so every transfer is a legal word interleaving.
type FIFO struct {
	name string

	mu       sync.Mutex
	notEmpty sync.Cond // signalled when words arrive, the waiting buffer fills or the FIFO closes
	notFull  sync.Cond // signalled when space frees, the pending burst empties or the FIFO closes

	buf    []Word // ring storage, len(buf) == depth
	head   int    // index of the oldest word
	count  int    // words currently buffered
	closed bool

	// The pending burst and the waiting buffer, each owned by a caller
	// blocked in a burst call.
	pend, wait burst

	// Traffic counters, guarded by mu. Burst operations account once per
	// burst chunk; the word totals equal the word-at-a-time sequence
	// exactly, while the burst counters record how many synchronisations
	// carried them (the quantity the observability layer reports as
	// words-per-burst efficiency). A direct copy between the two sides is
	// one push burst and one pop burst.
	pushes     int64
	pops       int64
	pushBursts int64
	popBursts  int64
	maxOcc     int64 // ring high-water mark, observed at burst boundaries
}

// burst is one side's burst call: its words (source or destination) and how
// many have moved.
type burst struct {
	words []Word
	done  int
}

func (b *burst) active() bool   { return b.words != nil }
func (b *burst) rest() []Word   { return b.words[b.done:] }
func (b *burst) finished() bool { return b.done == len(b.words) }

// New creates a FIFO with the given capacity (depth in words). Depth must be
// at least 1, matching hardware FIFOs which always have at least one slot.
func New(name string, depth int) *FIFO {
	if depth < 1 {
		panic(fmt.Sprintf("fifo %q: depth %d < 1", name, depth))
	}
	f := &FIFO{name: name, buf: make([]Word, depth)}
	f.notEmpty.L = &f.mu
	f.notFull.L = &f.mu
	return f
}

// enqueueLocked copies as many of p's remaining words as fit into the ring
// and accounts the burst; it returns the number moved. Callers hold mu.
func (f *FIFO) enqueueLocked(p *burst) int {
	vs := p.rest()
	n := min(len(f.buf)-f.count, len(vs))
	if n == 0 {
		return 0
	}
	tail := f.head + f.count
	if tail >= len(f.buf) {
		tail -= len(f.buf)
	}
	first := copy(f.buf[tail:], vs[:n])
	copy(f.buf, vs[first:n])
	f.count += n
	f.pushes += int64(n)
	f.pushBursts++
	p.done += n
	f.maxOcc = max(f.maxOcc, int64(f.count))
	return n
}

// dequeueLocked moves buffered words into c's rest and accounts the burst;
// it returns the number moved. Callers hold mu.
func (f *FIFO) dequeueLocked(c *burst) int {
	dst := c.rest()
	n := min(len(dst), f.count)
	if n == 0 {
		return 0
	}
	first := copy(dst[:n], f.buf[f.head:])
	copy(dst[first:n], f.buf)
	f.head += n
	if f.head >= len(f.buf) {
		f.head -= len(f.buf)
	}
	f.count -= n
	f.pops += int64(n)
	f.popBursts++
	c.done += n
	return n
}

// handOffLocked copies words straight from producer burst p to consumer
// burst c, past the ring: one push burst and one pop burst. Callers hold mu.
func (f *FIFO) handOffLocked(p, c *burst) int {
	n := copy(c.rest(), p.rest())
	if n == 0 {
		return 0
	}
	f.pushes += int64(n)
	f.pops += int64(n)
	f.pushBursts++
	f.popBursts++
	p.done += n
	c.done += n
	return n
}

// putLocked moves p's words into the waiting buffer (only while the ring is
// empty, since ring words are older) and then the ring, as far as they go.
// It reports whether a blocked consumer has something new: ring words, or a
// full waiting buffer. Callers hold mu.
func (f *FIFO) putLocked(p *burst) (wake bool) {
	if f.wait.active() && f.count == 0 && f.handOffLocked(p, &f.wait) > 0 && f.wait.finished() {
		wake = true
	}
	return f.enqueueLocked(p) > 0 || wake
}

// takeLocked fills c from the ring and then, once the ring is empty, from
// the pending burst; it returns the number of words moved. Callers hold mu.
func (f *FIFO) takeLocked(c *burst) int {
	n := f.dequeueLocked(c)
	if f.count == 0 && f.pendingLocked() {
		n += f.handOffLocked(&f.pend, c)
	}
	if n > 0 {
		f.wakeProducerLocked()
	}
	return n
}

// wakeProducerLocked wakes blocked producers after words were taken, unless
// a pending burst remains: then nothing a producer waits for has happened.
func (f *FIFO) wakeProducerLocked() {
	if !f.pend.active() || f.pend.finished() {
		f.notFull.Broadcast()
	}
}

// awaitRoomLocked blocks a word push until the ring has room and no pending
// burst is ahead of it; pushing to a closed FIFO panics, as writing to a
// hardware FIFO after end-of-stream is a design bug. Callers hold mu.
func (f *FIFO) awaitRoomLocked() {
	for (f.count == len(f.buf) || f.pend.active()) && !f.closed {
		f.notFull.Wait()
	}
	f.panicIfClosedLocked()
}

func (f *FIFO) panicIfClosedLocked() {
	if f.closed {
		f.mu.Unlock()
		panic(fmt.Sprintf("fifo %q: push after close", f.name))
	}
}

// pendingLocked reports whether the pending burst has words left to take.
func (f *FIFO) pendingLocked() bool { return len(f.pend.rest()) > 0 }

// awaitWordLocked blocks a pop until a word can be taken or the FIFO is
// closed. Callers hold mu.
func (f *FIFO) awaitWordLocked() {
	for f.count == 0 && !f.pendingLocked() && !f.closed {
		f.notEmpty.Wait()
	}
}

// Push appends v, blocking while the FIFO is full; a consumer waiting in
// PopInto receives it directly. Pushing to a closed FIFO panics.
func (f *FIFO) Push(v Word) {
	one := [1]Word{v}
	p := burst{words: one[:]}
	f.mu.Lock()
	f.awaitRoomLocked()
	if f.putLocked(&p) {
		f.notEmpty.Broadcast()
	}
	f.mu.Unlock()
}

// PushSlice appends every word of vs in order and returns once a consumer
// has taken every word that did not fit in the ring, so vs may exceed the
// FIFO depth. A consumer waiting in PopInto is filled directly; the words
// that fit neither it nor the ring stay pending in vs until consumers copy
// them out. vs may be reused once PushSlice returns. Pushing to a closed
// FIFO panics.
func (f *FIFO) PushSlice(vs []Word) {
	if len(vs) == 0 {
		return
	}
	p := burst{words: vs}
	f.mu.Lock()
	for f.pend.active() && !f.closed {
		f.notFull.Wait() // another producer's pending burst goes first
	}
	f.panicIfClosedLocked()
	if f.putLocked(&p) || !p.finished() {
		f.notEmpty.Broadcast()
	}
	if !p.finished() {
		f.pend = p
		for !f.pend.finished() && !f.closed {
			f.notFull.Wait()
		}
		done := f.pend.finished()
		f.pend = burst{}
		f.notFull.Broadcast() // the next producer's turn
		if !done {
			f.panicIfClosedLocked()
		}
	}
	f.mu.Unlock()
}

// Pop removes and returns the oldest word. It blocks while the FIFO is
// empty; once the FIFO is closed and drained it returns ok=false.
func (f *FIFO) Pop() (Word, bool) {
	var one [1]Word
	c := burst{words: one[:]}
	f.mu.Lock()
	f.awaitWordLocked()
	ok := f.takeLocked(&c) == 1
	f.mu.Unlock()
	return one[0], ok
}

// PopSlice removes up to len(dst) words in one burst: it blocks until at
// least one word is available (or the FIFO is closed and drained), then
// moves everything currently buffered and pending, up to len(dst). It
// returns the number of words written to dst; ok=false marks end-of-stream
// (closed and empty, n == 0).
func (f *FIFO) PopSlice(dst []Word) (int, bool) {
	if len(dst) == 0 {
		return 0, true
	}
	c := burst{words: dst}
	f.mu.Lock()
	f.awaitWordLocked()
	n := f.takeLocked(&c)
	f.mu.Unlock()
	return n, n > 0
}

// PopInto fills dst completely, blocking for more words as needed, and
// returns the number of words written. A short count (< len(dst)) means the
// FIFO was closed and drained before the burst completed.
func (f *FIFO) PopInto(dst []Word) int {
	if len(dst) == 0 {
		return 0
	}
	c := burst{words: dst}
	f.mu.Lock()
	for !c.finished() {
		if f.takeLocked(&c) > 0 {
			continue
		}
		if f.closed {
			break
		}
		if f.wait.active() {
			f.notEmpty.Wait() // another consumer's waiting buffer goes first
			continue
		}
		f.wait = c
		for !f.wait.finished() && f.count == 0 && !f.pendingLocked() && !f.closed {
			f.notEmpty.Wait()
		}
		c, f.wait = f.wait, burst{}
		f.notEmpty.Broadcast() // the next consumer's turn
	}
	f.mu.Unlock()
	return c.done
}

// Close marks end-of-stream. Subsequent Pops drain remaining words and then
// report ok=false. Close is idempotent.
func (f *FIFO) Close() {
	f.mu.Lock()
	f.closed = true
	f.notEmpty.Broadcast()
	f.notFull.Broadcast()
	f.mu.Unlock()
}

// Stats is a snapshot of FIFO traffic counters. Pushes/Pops count words and
// are datapath-invariant; PushBursts/PopBursts count the synchronisations
// that carried them (equal to the word counts on the word-at-a-time path,
// far smaller on the burst path).
type Stats struct {
	Name         string
	Depth        int
	Pushes       int64
	Pops         int64
	PushBursts   int64
	PopBursts    int64
	MaxOccupancy int64
}

// Stats returns the current traffic counters. MaxOccupancy is a high-water
// mark observed at burst boundaries: the largest buffered word count right
// after a push burst landed, which is the quantity buffer sizing needs.
func (f *FIFO) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Name:         f.name,
		Depth:        len(f.buf),
		Pushes:       f.pushes,
		Pops:         f.pops,
		PushBursts:   f.pushBursts,
		PopBursts:    f.popBursts,
		MaxOccupancy: f.maxOcc,
	}
}

// Drain pops until the FIFO is closed and empty, returning the number of
// words discarded. Used by teardown paths and tests.
func (f *FIFO) Drain() int {
	var scratch [256]Word
	total := 0
	for {
		n, ok := f.PopSlice(scratch[:])
		total += n
		if !ok {
			return total
		}
	}
}
