package aws

import (
	"bytes"
	"fmt"

	"condor/internal/tensor"
)

// encodeFloats serialises a float32 slice as little-endian raw bytes — the
// wire layout of input/output batches in S3 (the layout the generated host
// code reads and writes): one copy of the values' byte view.
func encodeFloats(vals []float32) []byte {
	return bytes.Clone(tensor.LEBytes(vals))
}

// decodeFloats parses little-endian raw float32 bytes, copying them into
// the byte view of the result.
func decodeFloats(data []byte) ([]float32, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("payload of %d bytes is not a float32 array", len(data))
	}
	out := make([]float32, len(data)/4)
	copy(tensor.LEBytes(out), data)
	return out, nil
}
