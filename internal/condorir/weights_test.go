package condorir_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"

	"condor/internal/caffe"
	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/tensor"
)

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fixtures are the weight sets the CNDW format is pinned on: TC1, LeNet
// lowered from its seed-1 caffemodel (the benchmark's toolflow input) and
// models.LeNet (the seed-2002 caffemodel the examples and tests build).
func fixtures(t testing.TB) map[string]*condorir.WeightSet {
	t.Helper()
	_, tc1, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := caffe.ParsePrototxt(models.LeNetPrototxt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := models.LeNetCaffeModel(1)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := caffe.ParseCaffeModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	topo.MergeWeights(trained)
	_, lenet, err := condorir.FromCaffe(topo, models.F1Board, models.LeNetFreqMHz)
	if err != nil {
		t.Fatal(err)
	}
	_, lenet2002, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*condorir.WeightSet{"tc1": tc1, "lenet": lenet, "models.LeNet": lenet2002}
}

// TestWeightsFormatUnchanged pins the CNDW bytes: the SHA-256 of each
// fixture's file as the bufio encoder wrote it before the one-pass encoder
// replaced it (models.LeNet's as the one-pass encoder wrote it). Bytes,
// Write and the joined Parts must all reproduce them, and the parts must
// carry each entry's values as a view of its data, not a copy.
func TestWeightsFormatUnchanged(t *testing.T) {
	want := map[string]string{
		"tc1":          "b94c99cb50b1035c56965b40fb44e1e10b8cc4e51b1c69878badc98fc3939f3c",
		"lenet":        "44ad24adb1d283fc17c3b04c7f1e5eb22e6afd0cf1d0420ed0120a4d1812305e",
		"models.LeNet": "132c949d04eac120189fd53419aa9dbefbd8e832ddfb93f321ba483a788c66b8",
	}
	for name, ws := range fixtures(t) {
		b, err := ws.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want[name] {
			t.Errorf("%s: Bytes() hashes to %x, want %s", name, sum, want[name])
		}
		if len(b) != cap(b) {
			t.Errorf("%s: Bytes() is %d bytes in a %d-byte buffer: the size precomputation is off", name, len(b), cap(b))
		}
		var buf bytes.Buffer
		if err := ws.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), b) {
			t.Errorf("%s: Write and Bytes disagree", name)
		}
		parts, err := ws.Parts()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.Join(parts, nil), b) {
			t.Errorf("%s: the joined parts and Bytes disagree", name)
		}
		entries := ws.Entries()
		if len(parts) != 2*len(entries)+1 {
			t.Fatalf("%s: %d parts for %d entries, want %d", name, len(parts), len(entries), 2*len(entries)+1)
		}
		for i, e := range entries {
			if p := parts[2*i+1]; len(p) != 4*len(e.Data) || len(p) > 0 && &p[0] != &tensor.LEBytes(e.Data)[0] {
				t.Errorf("%s: part %d is not the byte view of %s/%s", name, 2*i+1, e.Layer, e.Kind)
			}
		}
	}
}

func TestParseWeightsRoundTrip(t *testing.T) {
	for name, ws := range fixtures(t) {
		b, err := ws.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		got, err := condorir.ParseWeights(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Entries(), ws.Entries()) {
			t.Errorf("%s: ParseWeights(ws.Bytes()) differs from ws", name)
		}
	}
}

// TestParseWeightsBitExact: every value of every fixture, and the float32
// patterns a conversion could disturb (NaN payloads, quiet and signalling,
// −0, ±Inf, the smallest subnormal, MaxFloat32), comes back from
// ParseWeights(Bytes()) with its bits unchanged. DeepEqual cannot say so: a
// NaN never equals itself.
func TestParseWeightsBitExact(t *testing.T) {
	special := []uint32{0x7fc00001, 0xffc12345, 0x7f800001, 0xffbfffff, 0x80000000, 0x7f800000, 0xff800000, 0x00000001, 0x7f7fffff}
	odd := make([]float32, len(special))
	for i, u := range special {
		odd[i] = math.Float32frombits(u)
	}
	sets := fixtures(t)
	sets["special"] = condorir.NewWeightSet()
	sets["special"].PutRaw("odd", condorir.EntryWeights, []int{len(odd)}, odd)
	sets["special"].PutRaw("odd", condorir.EntryBias, nil, odd[:3])
	for name, ws := range sets {
		b, err := ws.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		got, err := condorir.ParseWeights(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != ws.Len() {
			t.Fatalf("%s: %d entries parsed, want %d", name, got.Len(), ws.Len())
		}
		for _, e := range ws.Entries() {
			g, ok := got.Get(e.Layer, e.Kind)
			if !ok || len(g.Data) != len(e.Data) {
				t.Fatalf("%s: entry %s/%s missing or resized", name, e.Layer, e.Kind)
			}
			for i, v := range e.Data {
				if math.Float32bits(g.Data[i]) != math.Float32bits(v) {
					t.Fatalf("%s: %s/%s value %d has bits %#08x, want %#08x",
						name, e.Layer, e.Kind, i, math.Float32bits(g.Data[i]), math.Float32bits(v))
				}
			}
		}
	}
}

// TestParseWeightsHostileHeaders feeds headers that declare far more data
// than they carry. Each must fail having allocated a bounded amount; before
// the bounds checks, the 21-byte file alone cost 4 GiB (4*n wrapping in
// uint32 sized the payload buffer).
func TestParseWeightsHostileHeaders(t *testing.T) {
	header := func(count uint32) []byte {
		b := append([]byte("CNDW"), 1, 0, 0, 0)
		return append(b, byte(count), byte(count>>8), byte(count>>16), byte(count>>24))
	}
	entry := func(name string, dims []uint32, n uint32) []byte {
		b := append([]byte{byte(len(name)), 0}, name...)
		b = append(b, 0, byte(len(dims)))
		for _, d := range dims {
			b = append(b, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
		}
		return append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"21-byte file, n=0x3FFFFFFF", append(header(1), entry("w", nil, 0x3FFFFFFF)...)},
		{"room for the entry, n=0x3FFFFFFF", append(append(header(1), entry("w", nil, 0x3FFFFFFF)...), make([]byte, 8)...)},
		{"4G entries", header(0xFFFFFFFF)},
		{"dims overflow to n=0", append(append(header(1), entry("w", []uint32{65536, 65536}, 0)...), make([]byte, 4)...)},
	} {
		var err error
		alloc := allocated(func() { _, err = condorir.ParseWeights(tc.file) })
		if err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing", tc.name, alloc)
		}
		t.Logf("%s (%d bytes): %v", tc.name, len(tc.file), err)
	}
}

// FuzzParseWeights holds the parser to its input: any byte string is
// either a weight set or an error, never a panic, and costs at most a small
// multiple of its own length (the minimum entry is 12 bytes; its map slot,
// entry record and key string are under 16 bytes per input byte).
func FuzzParseWeights(f *testing.F) {
	_, tc1, err := models.TC1()
	if err != nil {
		f.Fatal(err)
	}
	seed, err := tc1.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	// LeNet's file as DeployCloud uploads it: the encoder's parts, joined.
	_, lenet, err := models.LeNet()
	if err != nil {
		f.Fatal(err)
	}
	parts, err := lenet.Parts()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Join(parts, nil))
	f.Add([]byte("CNDW\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00w\x00\x00\xff\xff\xff\x3f"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var ws *condorir.WeightSet
		var err error
		alloc := allocated(func() { ws, err = condorir.ParseWeights(b) })
		if (ws == nil) == (err == nil) {
			t.Fatalf("ParseWeights returned %v and %v", ws, err)
		}
		if limit := 16*uint64(len(b)) + 64<<10; alloc > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(b), alloc, limit)
		}
	})
}
