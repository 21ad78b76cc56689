package proto_test

import (
	"runtime"
	"strings"
	"testing"

	"condor/internal/caffe"
	"condor/internal/models"
	"condor/internal/onnx"
	"condor/internal/proto"
)

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzProtoDecode holds the wire decoder and its repeated-field accessors to
// their input: Decode, then GetFloats and GetUints on every field number the
// message holds, each return a value or an error, never a panic. Allocation
// stays linear in the input: a field takes at least two bytes and costs one
// 48-byte Field, a packed varint takes one byte and costs eight, and append
// growing a large slice by 1.25× allocates up to five times its final size,
// so at most 5·(24+8) = 160 bytes per input byte (≈ 150 measured on a run of
// one-byte varint fields) — under the 256 checked.
func FuzzProtoDecode(f *testing.F) {
	blob, err := models.LeNetCaffeModel(1)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(blob), len(blob) - 1, len(blob) / 2, len(blob) / 3, 64, 7, 1} {
		f.Add(blob[:n])
	}
	topo, err := caffe.ParsePrototxt(models.LeNetPrototxt)
	if err != nil {
		f.Fatal(err)
	}
	trained, err := caffe.ParseCaffeModel(blob)
	if err != nil {
		f.Fatal(err)
	}
	topo.MergeWeights(trained)
	net, err := topo.ToNetwork()
	if err != nil {
		f.Fatal(err)
	}
	model, err := onnx.Encode(net)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(model)
	f.Add(model[:len(model)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		alloc := allocated(func() {
			msg, err := proto.Decode(b)
			if err != nil {
				if msg != nil {
					t.Fatalf("Decode returned %d fields and %v", len(msg), err)
				}
				return
			}
			seen := make(map[int]bool)
			for _, fld := range msg {
				if seen[fld.Num] {
					continue
				}
				seen[fld.Num] = true
				if vals, err := msg.GetFloats(fld.Num); err != nil && vals != nil {
					t.Fatalf("GetFloats(%d) returned %d values and %v", fld.Num, len(vals), err)
				}
				if vals, err := msg.GetUints(fld.Num); err != nil && vals != nil {
					t.Fatalf("GetUints(%d) returned %d values and %v", fld.Num, len(vals), err)
				}
			}
		})
		if limit := 256*uint64(len(b)) + 64<<10; alloc > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(b), alloc, limit)
		}
	})
}

// FuzzParseText holds the prototxt reader to its input: proto.ParseText and
// caffe.ParsePrototxt each return a value or an error, never a panic, and
// allocation stays linear in the input. The costliest input per byte is a
// repeated field given as a list of one-character scalars,
// "input_dim: [1,1,…]". Two bytes make one 72-byte TextField, and append
// growing the list by 1.25× allocates up to five times its final size, so
// one parse costs about 5·72/2 + 72/2 = 216 bytes per input byte; the input
// is parsed twice (ParsePrototxt parses it again), and caffe's accessors
// collect the field's []string and []int, 5·(16+8)/2 = 60 more: ≈ 500 in all
// (507 measured on a 40 kB list), under the 1024 checked. A run of adjacent
// string literals joins in one builder; appending each literal to the last
// result would copy the run quadratically, and the 20 kB seed of them would
// allocate past the limit.
func FuzzParseText(f *testing.F) {
	tc1 := tc1Prototxt(f)
	for _, src := range []string{models.LeNetPrototxt, tc1} {
		for _, n := range []int{len(src), len(src) - 1, len(src) / 2, len(src) / 3, 64, 7, 1} {
			f.Add(src[:n])
		}
	}
	f.Add(`name: ` + strings.Repeat(`"ab"`, 5000))
	f.Add(`input_dim: [` + strings.Repeat(`1,`, 2000) + `1]`)
	f.Add(strings.Repeat(`layer {`, 500))
	f.Fuzz(func(t *testing.T, src string) {
		alloc := allocated(func() {
			msg, err := proto.ParseText(src)
			if err != nil && msg != nil {
				t.Fatalf("ParseText returned %d fields and %v", len(msg), err)
			}
			m, err := caffe.ParsePrototxt(src)
			if err != nil && m != nil {
				t.Fatalf("ParsePrototxt returned a model and %v", err)
			}
		})
		if limit := 1024*uint64(len(src)) + 64<<10; alloc > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(src), alloc, limit)
		}
	})
}

// tc1Prototxt renders the TC1 network's topology as a Caffe prototxt.
func tc1Prototxt(f *testing.F) string {
	ir, _, err := models.TC1()
	if err != nil {
		f.Fatal(err)
	}
	m := &caffe.Model{Name: ir.Name, Input: []int{1, ir.Input.Channels, ir.Input.Height, ir.Input.Width}}
	bottom := "data"
	for _, l := range ir.Layers {
		spec := caffe.LayerSpec{Name: l.Name, Type: l.Type, Bottom: []string{bottom}, Top: []string{l.Name},
			NumOutput: l.NumOutput, Kernel: l.KernelSize, Stride: l.Stride, Pad: l.Pad, BiasTerm: l.Bias}
		switch l.Type {
		case "MaxPooling":
			spec.Type, spec.Pool = "Pooling", "MAX"
		case "AvgPooling":
			spec.Type, spec.Pool = "Pooling", "AVE"
		}
		m.Layers = append(m.Layers, spec)
		bottom = l.Name
	}
	src := caffe.EncodePrototxt(m)
	if _, err := caffe.ParsePrototxt(src); err != nil {
		f.Fatal(err)
	}
	return src
}
