package proto

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 21, 1<<63 - 1, math.MaxUint64}
	for _, v := range cases {
		b := AppendVarint(nil, v)
		got, n, err := ConsumeVarint(b)
		if err != nil {
			t.Fatalf("%d: %v", v, err)
		}
		if got != v || n != len(b) {
			t.Fatalf("varint %d round-trip got %d (n=%d, len=%d)", v, got, n, len(b))
		}
	}
}

func TestVarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		b := AppendVarint(nil, v)
		got, n, err := ConsumeVarint(b)
		return err == nil && got == v && n == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarintTruncated(t *testing.T) {
	b := AppendVarint(nil, 1<<40)
	if _, _, err := ConsumeVarint(b[:2]); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestVarintOverflow(t *testing.T) {
	b := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := ConsumeVarint(b); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestDecodeAllWireTypes(t *testing.T) {
	var b []byte
	b = AppendVarintField(b, 1, 42)
	b = AppendStringField(b, 2, "hello")
	b = AppendFloatField(b, 3, 1.5)
	b = AppendTag(b, 4, WireFixed64)
	b = append(b, 8, 0, 0, 0, 0, 0, 0, 0) // fixed64 = 8
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := msg.GetUint(1); !ok || v != 42 {
		t.Fatalf("field 1 = %d ok=%v", v, ok)
	}
	if s, ok := msg.GetString(2); !ok || s != "hello" {
		t.Fatalf("field 2 = %q", s)
	}
	if f, ok := msg.GetFloat(3); !ok || f != 1.5 {
		t.Fatalf("field 3 = %v", f)
	}
	if v, ok := msg.GetUint(4); !ok || v != 8 {
		t.Fatalf("field 4 = %d", v)
	}
}

func TestDecodeRejectsTruncatedLengthDelimited(t *testing.T) {
	b := AppendTag(nil, 1, WireBytes)
	b = AppendVarint(b, 100) // claims 100 bytes, provides none
	if _, err := Decode(b); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestDecodeRejectsFieldNumberZero(t *testing.T) {
	b := AppendVarint(nil, 0) // key with field number 0
	if _, err := Decode(b); err == nil {
		t.Fatal("expected invalid field number error")
	}
}

func TestDecodeRejectsGroupWireTypes(t *testing.T) {
	b := AppendVarint(nil, 1<<3|3) // start-group
	if _, err := Decode(b); err == nil {
		t.Fatal("expected unsupported wire type error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msg := Message{
		{Num: 1, Wire: WireVarint, Uint: 7},
		{Num: 2, Wire: WireBytes, Bytes: []byte("abc")},
		{Num: 2, Wire: WireBytes, Bytes: []byte("def")}, // repeated
		{Num: 3, Wire: WireFixed32, Uint: 0xdeadbeef},
		{Num: 4, Wire: WireFixed64, Uint: 0x0123456789abcdef},
	}
	got, err := Decode(Encode(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msg, got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", msg, got)
	}
}

// Property: any randomly generated message survives Encode→Decode intact.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		msg := make(Message, 0, n)
		for i := 0; i < n; i++ {
			f := Field{Num: rng.Intn(1000) + 1}
			switch rng.Intn(4) {
			case 0:
				f.Wire, f.Uint = WireVarint, rng.Uint64()
			case 1:
				f.Wire, f.Uint = WireFixed32, uint64(rng.Uint32())
			case 2:
				f.Wire, f.Uint = WireFixed64, rng.Uint64()
			case 3:
				f.Wire = WireBytes
				f.Bytes = make([]byte, rng.Intn(32))
				rng.Read(f.Bytes)
			}
			msg = append(msg, f)
		}
		got, err := Decode(Encode(msg))
		if err != nil {
			return false
		}
		if len(got) != len(msg) {
			return false
		}
		for i := range msg {
			if msg[i].Num != got[i].Num || msg[i].Wire != got[i].Wire || msg[i].Uint != got[i].Uint {
				return false
			}
			if !bytes.Equal(msg[i].Bytes, got[i].Bytes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedFloatsRoundTrip(t *testing.T) {
	vals := []float32{0, 1.5, -2.25, float32(math.Pi), math.MaxFloat32}
	b := AppendPackedFloats(nil, 5, vals)
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := msg.GetFloats(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, got) {
		t.Fatalf("packed floats %v, want %v", got, vals)
	}
}

func TestGetFloatsAcceptsUnpacked(t *testing.T) {
	var b []byte
	b = AppendFloatField(b, 5, 1)
	b = AppendFloatField(b, 5, 2)
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := msg.GetFloats(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("unpacked floats %v", got)
	}
}

// TestGetFloatsAllocatesOnce pins the exactly-sized result: a caffemodel
// blob of any length, packed or mixed with unpacked occurrences, costs one
// allocation, not the doublings of an unsized append.
func TestGetFloatsAllocatesOnce(t *testing.T) {
	vals := make([]float32, 10000)
	for i := range vals {
		vals[i] = float32(i)
	}
	b := AppendPackedFloats(nil, 5, vals)
	b = AppendFloatField(b, 5, -1)
	b = AppendPackedFloats(b, 5, vals[:7])
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	var got []float32
	allocs := testing.AllocsPerRun(20, func() { got, _ = msg.GetFloats(5) })
	if allocs != 1 {
		t.Fatalf("GetFloats made %v allocations, want 1", allocs)
	}
	if len(got) != len(vals)+8 || got[len(vals)] != -1 || got[len(got)-1] != 6 {
		t.Fatalf("GetFloats gathered %d values, want %d in field order", len(got), len(vals)+8)
	}
}

func TestGetFloatsRejectsMisalignedPacked(t *testing.T) {
	b := AppendBytesField(nil, 5, []byte{1, 2, 3}) // 3 bytes: not a float array
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := msg.GetFloats(5); err == nil {
		t.Fatal("expected misalignment error")
	}
}

func TestGetUintsPackedAndUnpacked(t *testing.T) {
	var packed []byte
	packed = AppendVarint(packed, 1)
	packed = AppendVarint(packed, 300)
	var b []byte
	b = AppendVarintField(b, 4, 7)
	b = AppendBytesField(b, 4, packed)
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := msg.GetUints(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([]uint64{7, 1, 300}, got) {
		t.Fatalf("uints %v", got)
	}
}

func TestNestedMessages(t *testing.T) {
	inner := AppendVarintField(nil, 1, 9)
	var b []byte
	b = AppendBytesField(b, 10, inner)
	b = AppendBytesField(b, 10, inner)
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := msg.GetMessages(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("got %d nested messages", len(subs))
	}
	if v, ok := subs[1].GetUint(1); !ok || v != 9 {
		t.Fatalf("nested field = %d", v)
	}
	one, err := msg.GetMessage(10)
	if err != nil || one == nil {
		t.Fatalf("GetMessage: %v %v", one, err)
	}
	none, err := msg.GetMessage(99)
	if err != nil || none != nil {
		t.Fatal("GetMessage on absent field should be (nil, nil)")
	}
}

func TestLastOneWinsMergeRule(t *testing.T) {
	var b []byte
	b = AppendVarintField(b, 1, 1)
	b = AppendVarintField(b, 1, 2)
	b = AppendStringField(b, 2, "a")
	b = AppendStringField(b, 2, "b")
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := msg.GetUint(1); v != 2 {
		t.Fatalf("last-one-wins uint = %d", v)
	}
	if s, _ := msg.GetString(2); s != "b" {
		t.Fatalf("last-one-wins string = %q", s)
	}
}

func TestBoolAndIntHelpers(t *testing.T) {
	var b []byte
	b = AppendBoolField(b, 1, true)
	b = AppendVarintField(b, 2, 5)
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !msg.GetBool(1, false) {
		t.Fatal("GetBool true wrong")
	}
	if msg.GetBool(9, true) != true {
		t.Fatal("GetBool default wrong")
	}
	if msg.GetInt(2, 0) != 5 || msg.GetInt(9, 42) != 42 {
		t.Fatal("GetInt wrong")
	}
	if !msg.Has(1) || msg.Has(9) {
		t.Fatal("Has wrong")
	}
}
