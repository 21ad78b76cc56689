package proto

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// specialBits are the float32 patterns a conversion could disturb: NaN
// payloads (quiet and signalling, both signs), −0, ±Inf, the smallest
// subnormal and MaxFloat32.
var specialBits = []uint32{
	0x7fc00001, 0xffc12345, // quiet NaNs with payloads
	0x7f800001, 0xffbfffff, // signalling NaNs, smallest and largest payload
	0x80000000,             // −0
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, // smallest subnormal
	0x7f7fffff, // MaxFloat32
}

// TestFloatsSpecialBits holds the packed float codec to binary.LittleEndian
// bit for bit: AppendPackedFloats writes each value's little-endian bits and
// GetFloats returns them unchanged, packed or unpacked.
func TestFloatsSpecialBits(t *testing.T) {
	vals := make([]float32, len(specialBits))
	var want []byte
	for i, u := range specialBits {
		vals[i] = math.Float32frombits(u)
		want = binary.LittleEndian.AppendUint32(want, u)
	}
	packed := AppendPackedFloats(nil, 5, vals)
	if !bytes.HasSuffix(packed, want) || len(packed) != 2+len(want) {
		t.Fatalf("AppendPackedFloats wrote % x, want the payload % x", packed, want)
	}
	unpacked := AppendFloatField(nil, 5, vals[0])
	for _, v := range vals[1:] {
		unpacked = AppendFloatField(unpacked, 5, v)
	}
	for _, tc := range []struct {
		name string
		b    []byte
		n    int
	}{{"packed", packed, len(vals)}, {"unpacked", unpacked, len(vals)}, {"mixed", append(packed, unpacked...), 2 * len(vals)}} {
		name := tc.name
		msg, err := Decode(tc.b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := msg.GetFloats(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tc.n {
			t.Fatalf("%s: %d values, want %d", name, len(got), tc.n)
		}
		for i, v := range got {
			if u := specialBits[i%len(vals)]; math.Float32bits(v) != u {
				t.Errorf("%s: value %d has bits %#08x, want %#08x", name, i, math.Float32bits(v), u)
			}
		}
	}
}
