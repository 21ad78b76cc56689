package condor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"condor/internal/aws"
	"condor/internal/caffe"
	"condor/internal/condorir"
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

// toolflowInput is the benchmark's toolflow-lenet-f1 input: LeNet from its
// seed-1 caffemodel, DSE on, for the F1 at the paper's 180 MHz.
func toolflowInput(tb testing.TB) Input {
	tb.Helper()
	blob, err := models.LeNetCaffeModel(1)
	if err != nil {
		tb.Fatal(err)
	}
	return Input{
		Prototxt: models.LeNetPrototxt, CaffeModel: blob,
		Board: models.F1Board, FrequencyMHz: models.LeNetFreqMHz, RunDSE: true,
	}
}

// TestWeightPathCopyBudget pins how many weight-payload-sized buffers the
// paper's headline path allocates: LeNet through BuildAccelerator (DSE on,
// F1) and then DeployCloud + Infer + Terminate against an in-process cloud.
// The weights are about 1.7 MB and dominate everything else the path
// allocates, so bytes allocated over the payload counts the copies.
//
// Measured by this test at the parent of the change that set these budgets:
// build 6.5×, deploy + infer + terminate 13.2× — GetFloats growing an
// unsized slice, Write going through bufio into a growing buffer, the S3
// mock's io.ReadAll and copying put/get, ReadWeights' per-entry scratch.
// FromNN's copy went later (the weight set now shares the parsed blobs, so
// the build fell from 2.2× to 1.2×). What is left is one copy in the build
// (the caffemodel decode) and three in the cloud hop (encode, PUT body,
// decode): 1.2× and 3.3×.
func TestWeightPathCopyBudget(t *testing.T) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Quiesce()

	in := toolflowInput(t)
	cfg := CloudConfig{Endpoint: ts.URL, License: aws.LicenseFromAMI(), Bucket: "condor-budget"}
	img := models.MNISTImages(1, 1)
	f := New()

	var b *Build
	var buildErr, cloudErr error
	build := func() { b, buildErr = f.BuildAccelerator(in) }
	cloud := func() {
		dep, err := f.DeployCloud(b, cfg)
		if err != nil {
			cloudErr = err
			return
		}
		if _, _, err := dep.Infer(img); err != nil {
			cloudErr = err
			return
		}
		cloudErr = dep.Terminate()
	}

	// The first iteration warms the HTTP connection and creates the bucket.
	// The minimum over the rest discounts a GC cycle or a straggling
	// goroutine landing inside one measurement.
	buildMin, cloudMin := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		bb := allocated(build)
		if buildErr != nil {
			t.Fatal(buildErr)
		}
		cb := allocated(cloud)
		if cloudErr != nil {
			t.Fatal(cloudErr)
		}
		if i > 0 {
			buildMin, cloudMin = min(buildMin, bb), min(cloudMin, cb)
		}
	}
	payload := float64(b.Weights.TotalBytes())
	buildX, cloudX := float64(buildMin)/payload, float64(cloudMin)/payload
	t.Logf("payload %.0f bytes: build %.1f×, deploy+infer+terminate %.1f×", payload, buildX, cloudX)
	if buildX > 1.5 {
		t.Errorf("BuildAccelerator allocates %.1f× the weight payload, budget 1.5×", buildX)
	}
	if cloudX > 4 {
		t.Errorf("DeployCloud + Infer + Terminate allocate %.1f× the weight payload, budget 4×", cloudX)
	}
}

// TestSharedWeightStorageStaysIntact: FromNN hands the network's weight and
// bias slices to the weight set without copying, so the caffemodel's parsed
// blobs are the storage Build.Weights holds. Building, deploying, inferring
// and terminating must leave every value of it as parsed.
func TestSharedWeightStorageStaysIntact(t *testing.T) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	in := toolflowInput(t)
	topo, err := caffe.ParsePrototxt(in.Prototxt)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := caffe.ParseCaffeModel(in.CaffeModel)
	if err != nil {
		t.Fatal(err)
	}
	topo.MergeWeights(trained)
	ir, ws, err := condorir.FromCaffe(topo, in.Board, in.FrequencyMHz)
	if err != nil {
		t.Fatal(err)
	}
	f := New()
	b, err := f.BuildAccelerator(Input{IR: ir, Weights: ws, Board: in.Board, FrequencyMHz: in.FrequencyMHz, RunDSE: true})
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]float32
	for _, l := range trained.Layers {
		for _, bl := range l.Blobs {
			blobs = append(blobs, bl.Data)
		}
	}
	if ip1, ok := b.Weights.Get("ip1", condorir.EntryWeights); !ok || !slices.ContainsFunc(blobs, func(d []float32) bool {
		return len(d) > 0 && &d[0] == &ip1.Data[0]
	}) {
		t.Fatal("Build.Weights' ip1 entry is not the parsed blob's storage: the test would prove nothing")
	}
	digest := func() [sha256.Size]byte {
		h := sha256.New()
		var word [4]byte
		put := func(data []float32) {
			for _, v := range data {
				binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
				h.Write(word[:])
			}
		}
		for _, d := range blobs {
			put(d)
		}
		for _, e := range b.Weights.Entries() {
			put(e.Data)
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	before := digest()

	dep, err := f.DeployCloud(b, CloudConfig{Endpoint: ts.URL, License: aws.LicenseFromAMI(), Bucket: "condor-shared"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dep.Infer(models.MNISTImages(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := dep.Terminate(); err != nil {
		t.Fatal(err)
	}
	if digest() != before {
		t.Fatal("build, deploy, infer or terminate wrote into the weight storage the parsed caffemodel shares")
	}
}

// TestStoredWeightsStayIntact pins the S3 mock's ownership contract: the
// store hands out the object it holds, so nothing downstream — the weights
// decode of every inference run — may write into it.
func TestStoredWeightsStayIntact(t *testing.T) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Quiesce()

	f := New()
	b, err := f.BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := f.DeployCloud(b, CloudConfig{Endpoint: ts.URL, License: aws.LicenseFromAMI(), Bucket: "condor-owner"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := dep.Infer(models.USPSImages(2, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	stored, err := dep.Client.GetObject(dep.Bucket, weightsKey(b))
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.WeightsBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, want) {
		t.Fatalf("stored weights object (%d bytes) no longer equals the build's weights file (%d bytes)", len(stored), len(want))
	}
	if err := dep.Terminate(); err != nil {
		t.Fatal(err)
	}
}
