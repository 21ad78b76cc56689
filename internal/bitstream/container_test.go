package bitstream

import (
	"runtime"
	"testing"

	"condor/internal/dataflow"
	"condor/internal/models"
)

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadContainerHostileCount: a 12-byte header declaring 0xFFFFFFFF
// sections used to size the section slice from the count and kill the
// process out of memory. The AFI worker parses whatever was uploaded, so
// PutObject + CreateFpgaImage reached it; so did programming a device.
func TestReadContainerHostileCount(t *testing.T) {
	for _, magic := range []string{xclbinMagic, afiMagic} {
		data := append([]byte(magic), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)
		var err error
		alloc := allocated(func() { _, err = ReadContainer(magic, data) })
		if err == nil {
			t.Errorf("%s: a 12-byte container declaring 4G sections parsed", magic)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing", magic, alloc)
		}
	}
	// The same header through the two public readers on the cloud path.
	if _, err := ReadXclbin(append([]byte(xclbinMagic), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)); err == nil {
		t.Error("ReadXclbin accepted a hostile section count")
	}
	if _, _, err := ReadAFITarball(append([]byte(afiMagic), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)); err == nil {
		t.Error("ReadAFITarball accepted a hostile section count")
	}
}

// lenetArtifacts compiles LeNet for the F1 and returns its xclbin and AFI
// tarball, the two containers the cloud path parses.
func lenetArtifacts(tb testing.TB) (xclbin, tarball []byte) {
	tb.Helper()
	ir, _, err := models.LeNet()
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		tb.Fatal(err)
	}
	xo, err := PackageXO(spec)
	if err != nil {
		tb.Fatal(err)
	}
	if xclbin, _, err = XOCC(xo, "aws-f1-vu9p"); err != nil {
		tb.Fatal(err)
	}
	if tarball, err = PackageAFITarball(xclbin); err != nil {
		tb.Fatal(err)
	}
	return xclbin, tarball
}

// FuzzReadContainer holds the container parser to its input: any byte
// string under either magic is sections or an error, never a panic, and
// costs at most a small multiple of its length (payloads are sub-slices; a
// 10-byte minimum section costs a 40-byte Section and its name).
func FuzzReadContainer(f *testing.F) {
	xclbin, tarball := lenetArtifacts(f)
	f.Add(xclbin)
	f.Add(tarball)
	f.Add(append([]byte(afiMagic), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, magic := range []string{xclbinMagic, afiMagic} {
			var sections []Section
			var err error
			alloc := allocated(func() { sections, err = ReadContainer(magic, data) })
			if err == nil && sections == nil {
				t.Fatalf("%s: no sections and no error", magic)
			}
			if limit := 8*uint64(len(data)) + 64<<10; alloc > limit {
				t.Fatalf("%s: %d-byte input allocated %d bytes (limit %d)", magic, len(data), alloc, limit)
			}
		}
	})
}
