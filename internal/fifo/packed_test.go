package fifo

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestPackedWords(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 3: 1, 4: 1, 5: 2, 8: 2, 9: 3, 256: 64, 10: 3}
	for n, want := range cases {
		if got := PackedWords(n); got != want {
			t.Errorf("PackedWords(%d) = %d, want %d", n, got, want)
		}
	}
}

// packThroughFIFO writes src into a packed word buffer through the code view,
// sends it through a FIFO as one packed burst and returns the words received
// and the codes viewed in them.
func packThroughFIFO(t *testing.T, src []int8) ([]Word, []int8) {
	t.Helper()
	words := make([]Word, PackedWords(len(src)))
	copy(Int8View(words, len(src)), src)
	f := New("pk", len(words)+1)
	f.PushPacked(words, int64(len(src)))
	f.Close()
	got := make([]Word, len(words))
	if n := f.PopPackedInto(got, int64(len(src))); n != len(got) {
		t.Fatalf("popped %d of %d words", n, len(got))
	}
	return got, Int8View(got, len(src))
}

// Property: codes written through the view, carried by a FIFO and read back
// through the view are the identity on every int8 lane pattern, at every
// length (including tails Int8Lanes does not divide). This must hold
// bit-exactly because the fabric's payload integrity depends on the float32
// word type never normalising or quieting the patterns its bytes form.
func TestPackUnpackLosslessProperty(t *testing.T) {
	f := func(src []int8) bool {
		_, got := packThroughFIFO(t, src)
		for i := range src {
			if got[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The adversarial lane patterns: words whose bit images alias float32 NaN
// and infinity encodings. A payload of 0x7F,0xC0,0x80,0xFF is the word
// 0xFF80C07F — a signalling-NaN bit pattern — and any arithmetic or
// load-through-float-register normalisation would quiet it (flipping a lane
// bit). The FIFO only ever copies words, so the pattern must survive, and the
// lanes must sit in the word's bits little-lane-first.
func TestPackUnpackNaNAliasedLanes(t *testing.T) {
	patterns := []struct {
		codes []int8
		word0 uint32
	}{
		{[]int8{0x7F, -0x40, -0x80, -0x01}, 0xFF80C07F},            // signalling NaN
		{[]int8{0x00, 0x00, -0x80, 0x7F}, 0x7F800000},              // +Inf
		{[]int8{0x00, 0x00, -0x80, -0x01}, 0xFF800000},             // −Inf
		{[]int8{-0x01, -0x01, -0x01, -0x01}, 0xFFFFFFFF},           // quiet NaN, all bits
		{[]int8{0x01, 0x00, -0x80, 0x7F, 0x55, -0x56}, 0x7F800001}, // NaN word + ragged tail
	}
	for _, p := range patterns {
		words, got := packThroughFIFO(t, p.codes)
		if bits := math.Float32bits(words[0]); bits != p.word0 {
			t.Fatalf("pattern %v: word 0 bits %#x, want %#x", p.codes, bits, p.word0)
		}
		for i := range p.codes {
			if got[i] != p.codes[i] {
				t.Fatalf("pattern %v lane %d: got %d, want %d (word bits %#x)",
					p.codes, i, got[i], p.codes[i], math.Float32bits(words[i/Int8Lanes]))
			}
		}
	}
}

// A packed push zeroes the unused tail lanes of its last word, whatever the
// buffer held before, and leaves every word before the payload alone.
func TestPushPackedZeroesTailLanes(t *testing.T) {
	for lanes := 0; lanes <= 9; lanes++ {
		words := make([]Word, 1+PackedWords(lanes))
		words[0] = math.Float32frombits(0xFFFFFFFF) // a header word, all bits set
		b := Int8View(words, len(words)*Int8Lanes)
		for i := Int8Lanes; i < len(b); i++ {
			b[i] = -1 // stale codes everywhere, tail included
		}
		f := New("tail", len(words))
		f.PushPacked(words, int64(lanes))
		f.Close()
		got := make([]Word, len(words))
		f.PopPackedInto(got, int64(lanes))
		if math.Float32bits(got[0]) != 0xFFFFFFFF {
			t.Fatalf("lanes=%d: the header word changed to %#x", lanes, math.Float32bits(got[0]))
		}
		for i, c := range Int8View(got[1:], len(got[1:])*Int8Lanes) {
			if want := int8(-1); i >= lanes {
				want = 0
				if c != want {
					t.Fatalf("lanes=%d: tail lane %d carries %d", lanes, i, c)
				}
			} else if c != want {
				t.Fatalf("lanes=%d: lane %d changed to %d", lanes, i, c)
			}
		}
	}
}

// Packed transfers must traverse a FIFO unchanged and advance the lane
// counters; plain word transfers must leave them at zero.
func TestPackedTransferLaneCounters(t *testing.T) {
	f := New("pk", 4)
	src := make([]int8, 11)
	for i := range src {
		src[i] = int8(i*17 - 80)
	}
	words := make([]Word, PackedWords(len(src)))
	copy(Int8View(words, len(src)), src)

	done := make(chan []int8)
	go func() {
		buf := make([]Word, len(words))
		if n := f.PopPackedInto(buf, int64(len(src))); n != len(buf) {
			done <- nil
			return
		}
		done <- Int8View(buf, len(src))
	}()
	f.PushPacked(words, int64(len(src)))
	got := <-done
	if got == nil {
		t.Fatal("packed frame truncated")
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("lane %d: got %d, want %d", i, got[i], src[i])
		}
	}
	st := f.Stats()
	if st.LanePushes != int64(len(src)) || st.LanePops != int64(len(src)) {
		t.Fatalf("lane counters %d/%d, want %d/%d", st.LanePushes, st.LanePops, len(src), len(src))
	}
	if st.Pushes != int64(len(words)) || st.Pops != int64(len(words)) {
		t.Fatalf("word counters %d/%d, want %d/%d", st.Pushes, st.Pops, len(words), len(words))
	}

	// A header word pushed the plain way carries no lanes. Depth 2 means
	// the single push never blocks, so no producer goroutine is needed.
	g := New("hdr", 2)
	g.Push(1.5)
	if v, ok := g.Pop(); !ok || v != 1.5 {
		t.Fatalf("header word round-trip: got %v (ok=%v), want 1.5", v, ok)
	}
	if st := g.Stats(); st.LanePushes != 0 || st.LanePops != 0 {
		t.Fatalf("plain transfer advanced lane counters: %+v", st)
	}
}

// FuzzPackedFrame decodes arbitrary words as an int8 frame the way the
// fabric's PEs and collector do: an epoch header (PopFrameHeader), then a
// scale word and an n-lane payload in one packed burst (PopPackedInto), read
// through the code view. Whatever the words, the decode returns an error or a
// value, never panics; every code it yields is the input's byte at that
// position; and the lane counters reconcile with the words that arrived, on
// a truncated frame too.
func FuzzPackedFrame(f *testing.F) {
	header := binary.LittleEndian.AppendUint32(nil, math.Float32bits(EncodeFrameHeader(7)))
	frame := append(binary.LittleEndian.AppendUint32(header, math.Float32bits(0.25)), 0x7F, 0xC0, 0x80, 0xFF, 1, 2)
	f.Add(frame, uint16(6))
	f.Add(frame, uint16(40)) // truncated
	f.Add(frame[:3], uint16(1))
	f.Add([]byte{0x7F, 0xC0, 0x80, 0xFF}, uint16(0)) // a NaN word where the header belongs
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		words := make([]Word, len(data)/4)
		for i := range words {
			words[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		q := New("fuzz", len(words)+1)
		q.PushSlice(words)
		q.Close()
		if _, ok, err := q.PopFrameHeader(); !ok || err != nil {
			return // an empty stream, or a word that is not a header: no frame
		}
		buf := make([]Word, 1+PackedWords(int(n)))
		got := q.PopPackedInto(buf, int64(n))
		if want := min(len(buf), len(words)-1); got != want {
			t.Fatalf("popped %d words of %d buffered, want %d", got, len(words)-1, want)
		}
		st := q.Stats()
		if want := int64(n) * int64(got) / int64(len(buf)); st.LanePops != want || st.LanePops > int64(n) {
			t.Fatalf("%d of %d words arrived: %d lanes booked, want %d", got, len(buf), st.LanePops, want)
		}
		if got < len(buf) {
			return // truncated: the fabric reports the short count as an error
		}
		for i, c := range Int8View(buf[1:], int(n)) {
			if want := int8(data[8+i]); c != want {
				t.Fatalf("lane %d: code %d, input byte %d", i, c, want)
			}
		}
	})
}
