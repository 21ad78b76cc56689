package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestLEBytesMatchesLittleEndian holds the view to binary.LittleEndian over
// the patterns a float conversion could disturb: quiet and signalling NaN
// payloads, −0, ±Inf, the smallest subnormal and MaxFloat32, both as an
// encode (reading the view) and as a decode (writing it).
func TestLEBytesMatchesLittleEndian(t *testing.T) {
	bits := []uint32{
		0x7fc00001, 0xffc12345, // quiet NaNs with payloads
		0x7f800001, 0xffbfffff, // signalling NaNs, smallest and largest payload
		0x80000000,             // −0
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, // smallest subnormal
		0x7f7fffff, // MaxFloat32
		0x3f800000, // 1
	}
	vals := make([]float32, len(bits))
	var want []byte
	for i, u := range bits {
		vals[i] = math.Float32frombits(u)
		want = binary.LittleEndian.AppendUint32(want, u)
	}
	if got := LEBytes(vals); !bytes.Equal(got, want) {
		t.Fatalf("LEBytes = % x, want % x", got, want)
	}
	dec := make([]float32, len(bits))
	if n := copy(LEBytes(dec), want); n != len(want) {
		t.Fatalf("the view of %d values holds %d bytes", len(dec), n)
	}
	for i, v := range dec {
		if math.Float32bits(v) != bits[i] {
			t.Errorf("value %d decoded to %#08x, want %#08x", i, math.Float32bits(v), bits[i])
		}
	}
	if b := LEBytes(nil); len(b) != 0 {
		t.Fatalf("LEBytes(nil) has %d bytes", len(b))
	}
	if b := LEBytes(vals[3:5]); !bytes.Equal(b, want[12:20]) {
		t.Fatalf("a subslice's view is % x, want % x", b, want[12:20])
	}
}
