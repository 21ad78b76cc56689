package proto_test

import (
	"runtime"
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
