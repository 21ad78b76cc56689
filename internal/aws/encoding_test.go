package aws

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestBatchCodecBitExact holds the S3 batch layout to binary.LittleEndian:
// NaN payloads (quiet and signalling), −0, ±Inf, the smallest subnormal and
// MaxFloat32 cross EncodeBatch and DecodeBatch bit for bit.
func TestBatchCodecBitExact(t *testing.T) {
	bits := []uint32{0x7fc00001, 0xffc12345, 0x7f800001, 0xffbfffff, 0x80000000, 0x7f800000, 0xff800000, 0x00000001, 0x7f7fffff}
	vals := make([]float32, len(bits))
	var want []byte
	for i, u := range bits {
		vals[i] = math.Float32frombits(u)
		want = binary.LittleEndian.AppendUint32(want, u)
	}
	enc := EncodeBatch(vals)
	if !bytes.Equal(enc, want) {
		t.Fatalf("EncodeBatch wrote % x, want % x", enc, want)
	}
	got, err := DecodeBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if math.Float32bits(v) != bits[i] {
			t.Errorf("value %d decoded to %#08x, want %#08x", i, math.Float32bits(v), bits[i])
		}
	}
	if len(got) != len(bits) {
		t.Fatalf("decoded %d values, want %d", len(got), len(bits))
	}
	if _, err := DecodeBatch(want[:5]); err == nil {
		t.Fatal("a 5-byte payload decoded as floats")
	}
}
