package aws

import (
	"bytes"
	"fmt"

	"condor/internal/tensor"
)

// EncodeBatch serialises a batch of float32 words as little-endian raw
// bytes — the wire layout of an inference batch's input and output (the
// layout the generated host code reads and writes): one copy of the values'
// byte view.
func EncodeBatch(vals []float32) []byte {
	return bytes.Clone(tensor.LEBytes(vals))
}

// DecodeBatch parses words in EncodeBatch's layout, copying them into the
// byte view of the result.
func DecodeBatch(data []byte) ([]float32, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("payload of %d bytes is not a float32 array", len(data))
	}
	out := make([]float32, len(data)/4)
	copy(tensor.LEBytes(out), data)
	return out, nil
}
