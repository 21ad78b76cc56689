// Package proto implements the subset of the Protocol Buffers encoding that
// the Caffe model formats use: the binary wire format (for .caffemodel
// files) and the text format (for .prototxt files). It is schema-agnostic —
// messages are generic trees of numbered fields — so the Caffe schema lives
// in internal/caffe on top of this package.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"condor/internal/tensor"
)

// WireType identifies the low-level encoding of a field on the wire.
type WireType int

const (
	WireVarint  WireType = 0
	WireFixed64 WireType = 1
	WireBytes   WireType = 2
	WireFixed32 WireType = 5
)

func (w WireType) String() string {
	switch w {
	case WireVarint:
		return "varint"
	case WireFixed64:
		return "fixed64"
	case WireBytes:
		return "bytes"
	case WireFixed32:
		return "fixed32"
	default:
		return fmt.Sprintf("wiretype(%d)", int(w))
	}
}

// Field is one decoded field occurrence. For WireVarint, WireFixed32 and
// WireFixed64 the raw value is in Uint; for WireBytes the payload is in
// Bytes (which may itself be a nested message, a string, or packed scalars —
// the schema layer decides).
type Field struct {
	Num   int
	Wire  WireType
	Uint  uint64
	Bytes []byte
}

// Message is a flat sequence of decoded fields in wire order. Repeated
// fields appear once per occurrence.
type Message []Field

// ErrTruncated is returned when the input ends in the middle of a field.
var ErrTruncated = errors.New("proto: truncated message")

// maxVarintBytes bounds varint length: 10 bytes encode up to 64 bits.
const maxVarintBytes = 10

// AppendVarint appends the base-128 varint encoding of v to b.
func AppendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// ConsumeVarint decodes a varint from the front of b, returning the value
// and the number of bytes consumed.
func ConsumeVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < maxVarintBytes; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	if len(b) >= maxVarintBytes {
		return 0, 0, errors.New("proto: varint overflows 64 bits")
	}
	return 0, 0, ErrTruncated
}

// Decode parses one level of a wire-format message. Nested messages remain
// as raw bytes in Field.Bytes and can be decoded with another Decode call.
func Decode(b []byte) (Message, error) {
	var msg Message
	for len(b) > 0 {
		key, n, err := ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		num := int(key >> 3)
		wire := WireType(key & 7)
		if num <= 0 {
			return nil, fmt.Errorf("proto: invalid field number %d", num)
		}
		f := Field{Num: num, Wire: wire}
		switch wire {
		case WireVarint:
			v, n, err := ConsumeVarint(b)
			if err != nil {
				return nil, err
			}
			f.Uint = v
			b = b[n:]
		case WireFixed64:
			if len(b) < 8 {
				return nil, ErrTruncated
			}
			f.Uint = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case WireFixed32:
			if len(b) < 4 {
				return nil, ErrTruncated
			}
			f.Uint = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		case WireBytes:
			ln, n, err := ConsumeVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < ln {
				return nil, ErrTruncated
			}
			f.Bytes = b[:ln:ln]
			b = b[ln:]
		default:
			return nil, fmt.Errorf("proto: unsupported wire type %d for field %d", int(wire), num)
		}
		msg = append(msg, f)
	}
	return msg, nil
}

// Encode serialises a Message back to wire format, preserving field order.
func Encode(m Message) []byte {
	var b []byte
	for _, f := range m {
		b = AppendVarint(b, uint64(f.Num)<<3|uint64(f.Wire))
		switch f.Wire {
		case WireVarint:
			b = AppendVarint(b, f.Uint)
		case WireFixed64:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], f.Uint)
			b = append(b, tmp[:]...)
		case WireFixed32:
			var tmp [4]byte
			binary.LittleEndian.PutUint32(tmp[:], uint32(f.Uint))
			b = append(b, tmp[:]...)
		case WireBytes:
			b = AppendVarint(b, uint64(len(f.Bytes)))
			b = append(b, f.Bytes...)
		}
	}
	return b
}

// --- Builder helpers (used to construct caffemodel files) ---

// AppendTag appends a field key for (num, wire).
func AppendTag(b []byte, num int, wire WireType) []byte {
	return AppendVarint(b, uint64(num)<<3|uint64(wire))
}

// AppendVarintField appends a varint field.
func AppendVarintField(b []byte, num int, v uint64) []byte {
	return AppendVarint(AppendTag(b, num, WireVarint), v)
}

// AppendBoolField appends a bool field (proto encodes bools as varints).
func AppendBoolField(b []byte, num int, v bool) []byte {
	var u uint64
	if v {
		u = 1
	}
	return AppendVarintField(b, num, u)
}

// AppendBytesField appends a length-delimited field.
func AppendBytesField(b []byte, num int, payload []byte) []byte {
	b = AppendTag(b, num, WireBytes)
	b = AppendVarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// AppendStringField appends a string as a length-delimited field.
func AppendStringField(b []byte, num int, s string) []byte {
	return AppendBytesField(b, num, []byte(s))
}

// AppendFloatField appends a single float as a fixed32 field.
func AppendFloatField(b []byte, num int, v float32) []byte {
	b = AppendTag(b, num, WireFixed32)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], math.Float32bits(v))
	return append(b, tmp[:]...)
}

// AppendPackedFloats appends a repeated float field in packed encoding, the
// layout Caffe uses for BlobProto.data: the payload is the values'
// little-endian bytes (tensor.LEBytes), appended in one copy.
func AppendPackedFloats(b []byte, num int, vals []float32) []byte {
	b = AppendVarint(AppendTag(b, num, WireBytes), uint64(4*len(vals)))
	return append(b, tensor.LEBytes(vals)...)
}

// --- Accessor helpers on decoded messages ---

// GetUint returns the last occurrence of varint/fixed field num ("last one
// wins", the protobuf merge rule for optional scalars).
func (m Message) GetUint(num int) (uint64, bool) {
	var v uint64
	found := false
	for _, f := range m {
		if f.Num == num && f.Wire != WireBytes {
			v = f.Uint
			found = true
		}
	}
	return v, found
}

// GetBool returns a varint field interpreted as bool.
func (m Message) GetBool(num int, def bool) bool {
	if v, ok := m.GetUint(num); ok {
		return v != 0
	}
	return def
}

// GetInt returns a varint field as int with a default.
func (m Message) GetInt(num int, def int) int {
	if v, ok := m.GetUint(num); ok {
		return int(int64(v))
	}
	return def
}

// GetString returns the last occurrence of a bytes field as a string.
func (m Message) GetString(num int) (string, bool) {
	var s string
	found := false
	for _, f := range m {
		if f.Num == num && f.Wire == WireBytes {
			s = string(f.Bytes)
			found = true
		}
	}
	return s, found
}

// GetFloat returns the last occurrence of a fixed32 field as float32.
func (m Message) GetFloat(num int) (float32, bool) {
	var v float32
	found := false
	for _, f := range m {
		if f.Num == num && f.Wire == WireFixed32 {
			v = math.Float32frombits(uint32(f.Uint))
			found = true
		}
	}
	return v, found
}

// GetMessages decodes every occurrence of bytes field num as a nested
// message (the repeated-message accessor).
func (m Message) GetMessages(num int) ([]Message, error) {
	var out []Message
	for _, f := range m {
		if f.Num == num && f.Wire == WireBytes {
			sub, err := Decode(f.Bytes)
			if err != nil {
				return nil, fmt.Errorf("proto: field %d: %w", num, err)
			}
			out = append(out, sub)
		}
	}
	return out, nil
}

// GetMessage decodes the last occurrence of bytes field num as a nested
// message, or returns (nil, nil) when absent.
func (m Message) GetMessage(num int) (Message, error) {
	var raw []byte
	found := false
	for _, f := range m {
		if f.Num == num && f.Wire == WireBytes {
			raw = f.Bytes
			found = true
		}
	}
	if !found {
		return nil, nil
	}
	return Decode(raw)
}

// GetFloats gathers a repeated float field, accepting both the packed
// (length-delimited) and unpacked (one fixed32 per occurrence) encodings
// proto2 writers use, into one slice sized by a counting pass first. A
// packed run is the values' little-endian bytes, so it lands in one copy
// into the result's byte view (tensor.LEBytes).
func (m Message) GetFloats(num int) ([]float32, error) {
	n := 0
	for _, f := range m {
		switch {
		case f.Num == num && f.Wire == WireFixed32:
			n++
		case f.Num == num && f.Wire == WireBytes:
			if len(f.Bytes)%4 != 0 {
				return nil, fmt.Errorf("proto: packed float field %d has %d bytes (not a multiple of 4)", num, len(f.Bytes))
			}
			n += len(f.Bytes) / 4
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]float32, n)
	i := 0
	for _, f := range m {
		switch {
		case f.Num == num && f.Wire == WireFixed32:
			out[i] = math.Float32frombits(uint32(f.Uint))
			i++
		case f.Num == num && f.Wire == WireBytes:
			i += copy(tensor.LEBytes(out[i:]), f.Bytes) / 4
		}
	}
	return out, nil
}

// GetUints gathers a repeated integer field, accepting packed and unpacked
// varint encodings (used for BlobShape.dim and NetParameter.input_dim).
func (m Message) GetUints(num int) ([]uint64, error) {
	var out []uint64
	for _, f := range m {
		switch {
		case f.Num == num && f.Wire == WireVarint:
			out = append(out, f.Uint)
		case f.Num == num && f.Wire == WireBytes:
			b := f.Bytes
			for len(b) > 0 {
				v, n, err := ConsumeVarint(b)
				if err != nil {
					return nil, fmt.Errorf("proto: packed varint field %d: %w", num, err)
				}
				out = append(out, v)
				b = b[n:]
			}
		}
	}
	return out, nil
}

// GetStrings gathers every occurrence of a repeated string field.
func (m Message) GetStrings(num int) []string {
	var out []string
	for _, f := range m {
		if f.Num == num && f.Wire == WireBytes {
			out = append(out, string(f.Bytes))
		}
	}
	return out
}

// Has reports whether field num occurs at least once.
func (m Message) Has(num int) bool {
	for _, f := range m {
		if f.Num == num {
			return true
		}
	}
	return false
}
