package fifo

import "unsafe"

// Packed-lane transfers: the fixed-point fabric keeps the FIFO word 32 bits
// wide (Word stays the ring-buffer currency) but packs Int8Lanes int8
// activation lanes into each word, quadrupling the effective stream
// bandwidth — the Qiu-style bandwidth optimisation the quantized datapath is
// built on. The lanes are the words' bytes in memory order: lane i of a
// packed buffer is its byte i, so Int8View packs and unpacks by viewing the
// word buffer as codes, with no per-lane loop. Every target this module
// builds for (amd64, arm64, 386) is little-endian, so lane i%Int8Lanes of a
// word is also its bits 8·i… of the 32-bit pattern. Words are only ever
// copied, never used as floats, so every lane pattern — including ones whose
// word aliases a NaN encoding — survives the ring unchanged.

// Int8Lanes is the number of int8 lanes packed into one 32-bit FIFO word.
const Int8Lanes = 4

// PackedWords returns the number of 32-bit words needed to carry n int8
// lanes (the tail word is zero-padded when Int8Lanes does not divide n).
func PackedWords(n int) int { return (n + Int8Lanes - 1) / Int8Lanes }

// Int8View returns the first n lanes of the packed words as codes, lane i at
// byte i: writing the view packs the words, reading it unpacks them. words
// must hold PackedWords(n) words.
func Int8View(words []Word, n int) []int8 {
	_ = words[:PackedWords(n)]
	return unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// PushPacked pushes a burst whose last PackedWords(lanes) words carry the
// given number of int8 lanes — words before them, such as a per-image scale
// header, carry none — like PushSlice, booking the lanes with the words in
// the same critical sections, in proportion to the words moved. The unused tail lanes of the last
// word are zeroed first, so a frame never carries a stale code.
func (f *FIFO) PushPacked(vs []Word, lanes int64) {
	if pad := int(-lanes & (Int8Lanes - 1)); pad > 0 {
		b := Int8View(vs, len(vs)*Int8Lanes)
		clear(b[len(b)-pad:])
	}
	f.push(vs, lanes)
}

// PopPackedInto fills dst with packed words (blocking like PopInto) and
// books the given lane count on the pop side with the words, in proportion:
// a truncated frame books the lanes of the words that arrived, so pushes and
// pops still reconcile on teardown. It returns the number of words read; a
// short count means the stream closed mid-frame.
func (f *FIFO) PopPackedInto(dst []Word, lanes int64) int { return f.popInto(dst, lanes) }
