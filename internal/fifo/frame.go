package fifo

import (
	"fmt"
	"math"
)

// Frame protocol: continuous-streaming sessions separate consecutive images
// on a stream edge with an epoch-tagged header word, so every element can
// verify it is consuming the image it thinks it is while frames from two
// adjacent epochs interleave inside the FIFO. The header is one Word whose
// high half is a magic pattern and whose low half carries the epoch counter
// (mod 2^16); activation payloads are IEEE-754 values that cannot collide
// with the magic because headers are only ever popped at frame boundaries,
// never searched for mid-stream.
//
// Header words are control traffic, not datapath traffic: they are counted
// in HeaderPushes/HeaderPops rather than Pushes/Pops, so the word totals of
// a framed streaming run stay bit-identical to the unframed word oracle. On
// the packed int8 datapath the epoch header precedes the per-image scale
// word from the quantized frame layout; the scale word remains an ordinary
// datapath push for compatibility with that layout.

// frameMagic marks a Word as a frame header; the low 16 bits carry the
// epoch. The pattern is a quiet-NaN-free exponent region that real
// activations can also produce, which is fine: headers are positional.
const frameMagic = uint32(0xC0DE0000)

// EncodeFrameHeader builds the header word for an epoch.
func EncodeFrameHeader(epoch uint16) Word {
	return math.Float32frombits(frameMagic | uint32(epoch))
}

// DecodeFrameHeader extracts the epoch from a header word; ok=false means
// the word does not carry the frame-header magic.
func DecodeFrameHeader(w Word) (uint16, bool) {
	bits := math.Float32bits(w)
	if bits&0xFFFF0000 != frameMagic {
		return 0, false
	}
	return uint16(bits & 0xFFFF), true
}

// PushFrameHeader appends the epoch header word, blocking while the FIFO is
// full. The word is accounted as control traffic (HeaderPushes) and marks an
// epoch boundary for per-epoch occupancy tracking; the datapath counters are
// untouched. Pushing to a closed FIFO panics, like Push.
func (f *FIFO) PushFrameHeader(epoch uint16) {
	w := EncodeFrameHeader(epoch)
	f.mu.Lock()
	f.awaitRoomLocked()
	f.markEpochLocked()
	tail := f.head + f.count
	if tail >= len(f.buf) {
		tail -= len(f.buf)
	}
	f.buf[tail] = w
	f.count++
	f.headerPushes++
	f.maxOcc = max(f.maxOcc, int64(f.count))
	f.epochOcc = max(f.epochOcc, int64(f.count))
	f.notEmpty.Broadcast()
	f.mu.Unlock()
}

// PopFrameHeader removes the oldest word — the ring's head, or a pending
// burst's next word — and decodes it as a frame header. It blocks while the FIFO is empty; ok=false marks
// end-of-stream (closed and drained), the way a resident element learns its
// session is over. A non-header word at a frame boundary is a protocol
// violation and is returned as an error with the word left consumed.
func (f *FIFO) PopFrameHeader() (epoch uint16, ok bool, err error) {
	var one [1]Word
	c := burst{words: one[:]}
	f.mu.Lock()
	f.awaitWordLocked()
	if f.takeLocked(&c) == 0 {
		f.mu.Unlock()
		return 0, false, nil
	}
	f.pops, f.popBursts, f.headerPops = f.pops-1, f.popBursts-1, f.headerPops+1 // control traffic, not a datapath pop
	f.mu.Unlock()
	w := one[0]
	e, valid := DecodeFrameHeader(w)
	if !valid {
		return 0, true, fmt.Errorf("fifo %q: word %v at frame boundary is not a frame header", f.name, w)
	}
	return e, true, nil
}

// markEpochLocked closes the current per-epoch occupancy window and opens
// the next: the window's high-water mark folds into the across-epochs
// maximum, and the new window starts at the current occupancy (the previous
// epoch's unconsumed tail — exactly the interleaving CND024 bounds).
func (f *FIFO) markEpochLocked() {
	if f.epochs > 0 && f.epochOcc > f.epochMaxOcc {
		f.epochMaxOcc = f.epochOcc
	}
	f.epochs++
	f.epochOcc = int64(f.count)
}

// MarkEpoch records an epoch boundary without transferring a word, for
// callers that frame out-of-band (tests, custom protocols).
func (f *FIFO) MarkEpoch() {
	f.mu.Lock()
	f.markEpochLocked()
	f.mu.Unlock()
}
