package tensor

import "unsafe"

// LEBytes returns the little-endian encoding of vals as a view of their
// memory, four bytes per value: byte 4·i+k is byte k of the little-endian
// encoding of math.Float32bits(vals[i]). Every target this module builds for (amd64,
// arm64, 386) is little-endian, so the view is that encoding with no
// per-value loop. Writing the view writes the values: copying encoded bytes
// into LEBytes(dst) decodes them. Nothing passes through a float register,
// so every bit pattern, NaN payloads included, crosses unchanged.
func LEBytes(vals []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))
}
