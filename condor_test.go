package condor

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"condor/internal/aws"
	"condor/internal/bitstream"
	"condor/internal/models"
	"condor/internal/onnx"
	"condor/internal/quant"
	"condor/internal/tensor"
)

func tc1Input(t *testing.T) Input {
	t.Helper()
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	return Input{IR: ir, Weights: ws}
}

func TestBuildAcceleratorFromIR(t *testing.T) {
	var logLines []string
	f := &Framework{Logf: func(format string, args ...any) {
		logLines = append(logLines, format)
	}}
	b, err := f.BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Kernel != "condor_TC1" || b.Meta.Board != "aws-f1-vu9p" {
		t.Fatalf("meta = %+v", b.Meta)
	}
	if len(b.XO) == 0 || len(b.Xclbin) == 0 || b.HostCode == "" {
		t.Fatal("build artifacts missing")
	}
	if !b.Report.Fits {
		t.Fatal("TC1 must fit the F1")
	}
	if len(logLines) == 0 {
		t.Fatal("expected progress logging")
	}
}

// TestBuildRecordsCompiledXclbin: BuildAccelerator takes Meta and HostCode
// from the compile step instead of decoding the xclbin it just wrote; they
// must equal what decoding it gives, at both precisions and with DSE on.
func TestBuildRecordsCompiledXclbin(t *testing.T) {
	for _, prec := range []quant.Precision{quant.Float32, quant.Int8} {
		in := toolflowInput(t)
		in.Precision = prec
		b, err := New().BuildAccelerator(in)
		if err != nil {
			t.Fatal(err)
		}
		x, err := bitstream.ReadXclbin(b.Xclbin)
		if err != nil {
			t.Fatal(err)
		}
		if b.Meta != x.Meta || b.HostCode != x.Host {
			t.Fatalf("%s: build recorded %+v, the xclbin holds %+v", prec, b.Meta, x.Meta)
		}
	}
}

func TestBuildAcceleratorFromCaffe(t *testing.T) {
	blob, err := models.LeNetCaffeModel(3)
	if err != nil {
		t.Fatal(err)
	}
	f := New()
	b, err := f.BuildAccelerator(Input{
		Prototxt:     models.LeNetPrototxt,
		CaffeModel:   blob,
		Board:        "aws-f1-vu9p",
		FrequencyMHz: models.LeNetFreqMHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Name != "LeNet" || b.Meta.RequestedMHz != 180 {
		t.Fatalf("meta = %+v", b.Meta)
	}
}

func TestBuildAcceleratorFromJSONAndWeightsFile(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	js, err := ir.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	var wbuf bytes.Buffer
	if err := ws.Write(&wbuf); err != nil {
		t.Fatal(err)
	}
	b, err := New().BuildAccelerator(Input{NetworkJSON: js, WeightsFile: &wbuf})
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Name != "TC1" {
		t.Fatalf("meta = %+v", b.Meta)
	}
}

func TestBuildAcceleratorFromONNX(t *testing.T) {
	// Round-trip LeNet through the ONNX frontend and check the build is
	// functionally identical to the Caffe-path build.
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	net, err := ir.BuildNN(ws)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := onnx.Encode(net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().BuildAccelerator(Input{
		ONNXModel:    blob,
		Board:        "aws-f1-vu9p",
		FrequencyMHz: models.LeNetFreqMHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Name != "LeNet" {
		t.Fatalf("meta = %+v", b.Meta)
	}
	acc, err := b.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	imgs := models.MNISTImages(1, 5)
	outs, _, err := acc.Run(imgs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Predict(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(outs[0], want, 2e-3) {
		t.Fatal("ONNX-path accelerator computes different outputs")
	}
}

func TestFrontendInputErrors(t *testing.T) {
	f := New()
	if _, _, err := f.Frontend(Input{}); err == nil {
		t.Fatal("expected no-input error")
	}
	if _, _, err := f.Frontend(Input{Prototxt: models.LeNetPrototxt}); err == nil {
		t.Fatal("expected missing-caffemodel error")
	}
	blob, _ := models.LeNetCaffeModel(1)
	if _, _, err := f.Frontend(Input{Prototxt: models.LeNetPrototxt, CaffeModel: blob}); err == nil {
		t.Fatal("expected missing-board error")
	}
	ir, _, _ := models.TC1()
	if _, _, err := f.Frontend(Input{IR: ir}); err == nil {
		t.Fatal("expected missing-weights error")
	}
	ir2, ws2, _ := models.TC1()
	if _, _, err := f.Frontend(Input{IR: ir2, Weights: ws2, Board: "bogus"}); err == nil {
		t.Fatal("expected unknown-board error")
	}
}

func TestPerformanceSummaryBands(t *testing.T) {
	b, err := New().BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Performance()
	if err != nil {
		t.Fatal(err)
	}
	// Table 1 bands: TC1 lands in single-digit GFLOPS and Watts.
	if s.GFLOPS < 1 || s.GFLOPS > 30 {
		t.Fatalf("TC1 GFLOPS = %v", s.GFLOPS)
	}
	if s.PowerW < 3 || s.PowerW > 12 {
		t.Fatalf("TC1 power = %v W", s.PowerW)
	}
	if s.GFLOPSPerWatt <= 0 {
		t.Fatal("efficiency must be positive")
	}
	if s.LatencyMs <= 0 || s.BottleneckCycles <= 0 {
		t.Fatalf("latency/bottleneck = %v / %v", s.LatencyMs, s.BottleneckCycles)
	}
}

func TestBatchCurveFigure5Shape(t *testing.T) {
	b, err := New().BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	curve, err := b.BatchCurve([]int{1, 2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].MeanMsPerImage > curve[i-1].MeanMsPerImage {
			t.Fatal("Figure 5 curve must be non-increasing")
		}
	}
	if curve[0].MeanMsPerImage <= curve[len(curve)-1].MeanMsPerImage*1.01 {
		t.Fatal("expected a visible pipeline effect between batch 1 and 32")
	}
}

func TestLocalDeploymentEndToEnd(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	ir.Board = "zc706" // a locally-deployable board
	f := New()
	b, err := f.BuildAccelerator(Input{IR: ir, Weights: ws})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := f.DeployLocal(b)
	if err != nil {
		t.Fatal(err)
	}
	imgs := models.USPSImages(2, 21)
	outs, ms, err := dep.Infer(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || ms <= 0 {
		t.Fatalf("outputs %d, ms %v", len(outs), ms)
	}
	net, err := b.IR.BuildNN(b.Weights)
	if err != nil {
		t.Fatal(err)
	}
	for i := range imgs {
		want, err := net.Predict(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(outs[i], want, 2e-3) {
			t.Fatalf("image %d mismatch", i)
		}
	}
}

func TestLocalDeploymentRefusesF1(t *testing.T) {
	f := New()
	b, err := f.BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DeployLocal(b); err == nil {
		t.Fatal("F1 builds must not deploy locally")
	}
}

func TestCloudDeploymentEndToEnd(t *testing.T) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: 5 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	f := New()
	b, err := f.BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := f.DeployCloud(b, CloudConfig{
		Endpoint: ts.URL,
		License:  aws.LicenseFromAMI(),
		Bucket:   "condor-e2e",
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.AFI.State != aws.AFIAvailable {
		t.Fatalf("AFI state %q", dep.AFI.State)
	}
	imgs := models.USPSImages(4, 31)
	outs, ms, err := dep.Infer(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 || ms <= 0 {
		t.Fatalf("outputs %d ms %v", len(outs), ms)
	}
	net, err := b.IR.BuildNN(b.Weights)
	if err != nil {
		t.Fatal(err)
	}
	for i := range imgs {
		want, err := net.Predict(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(outs[i], want, 2e-3) {
			t.Fatalf("cloud image %d mismatch", i)
		}
	}
	if err := dep.Terminate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloudDeploymentMultiSlot(t *testing.T) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: 5 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	f := New()
	b, err := f.BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := f.DeployCloud(b, CloudConfig{
		Endpoint:     ts.URL,
		License:      aws.LicenseFromAMI(),
		Bucket:       "condor-fleet",
		InstanceType: "f1.16xlarge",
		Slots:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Slots) != 8 {
		t.Fatalf("programmed slots = %v", dep.Slots)
	}
	imgs := models.USPSImages(16, 41)
	outs, ms, err := dep.InferSharded(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 16 || ms <= 0 {
		t.Fatalf("outputs %d ms %v", len(outs), ms)
	}
	net, err := b.IR.BuildNN(b.Weights)
	if err != nil {
		t.Fatal(err)
	}
	for i := range imgs {
		want, err := net.Predict(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if outs[i] == nil || !tensor.AllClose(outs[i], want, 2e-3) {
			t.Fatalf("sharded image %d mismatch", i)
		}
	}
	// The sharded wall time (2 images per slot) must undercut the
	// single-slot time for the same batch.
	_, msSingle, err := dep.Infer(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if ms >= msSingle {
		t.Fatalf("sharded %v ms should beat single-slot %v ms", ms, msSingle)
	}
}

func TestCloudDeploymentTooManySlots(t *testing.T) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	f := New()
	b, err := f.BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.DeployCloud(b, CloudConfig{
		Endpoint: ts.URL, License: aws.LicenseFromAMI(), Bucket: "condor-oversub",
		InstanceType: "f1.2xlarge", Slots: 4,
	})
	if err == nil {
		t.Fatal("expected slot-count error on f1.2xlarge")
	}
	// The failed deployment returned no handle to terminate with, so it must
	// not leave the instance it launched running.
	if ids := runningInstances(t, ts.URL); len(ids) != 0 {
		t.Fatalf("the failed deployment left instances %v running", ids)
	}
}

// runningInstances lists the instances the simulated endpoint reports
// running (DescribeInstances).
func runningInstances(t *testing.T, endpoint string) []string {
	t.Helper()
	resp, err := http.Post(endpoint+"/api", "application/json", strings.NewReader(`{"Action":"DescribeInstances"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ Instances []aws.Instance }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Instances) == 0 {
		t.Fatal("DescribeInstances lists no instance: the deployment never launched one")
	}
	var ids []string
	for _, in := range out.Instances {
		if in.State == "running" {
			ids = append(ids, in.InstanceID)
		}
	}
	return ids
}

func TestCloudDeploymentRequiresLicense(t *testing.T) {
	srv := aws.NewServer(aws.Options{AFIGenerationDelay: time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	f := New()
	b, err := f.BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.DeployCloud(b, CloudConfig{Endpoint: ts.URL, Bucket: "nolic"})
	if err == nil || !strings.Contains(err.Error(), "License") {
		t.Fatalf("expected licence failure, got %v", err)
	}
}

func TestBuildWithDSE(t *testing.T) {
	in := tc1Input(t)
	in.RunDSE = true
	b, err := New().BuildAccelerator(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.DSETrace) == 0 {
		t.Fatal("expected DSE moves")
	}
	base, err := New().BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	sOpt, err := b.Performance()
	if err != nil {
		t.Fatal(err)
	}
	sBase, err := base.Performance()
	if err != nil {
		t.Fatal(err)
	}
	if sOpt.GFLOPS <= sBase.GFLOPS {
		t.Fatalf("DSE should improve GFLOPS: %v vs %v", sOpt.GFLOPS, sBase.GFLOPS)
	}
}

// TestWarmSessionAllocations pins the allocation-free session datapath: on a
// warm LeNet session fed 16-image batches, what is left per image is the
// output tensor and a share of RunBatch's result and stats — nothing per
// layer, per channel pass or per band — and RunInto, the kernel's path from
// one flat buffer into another, allocates nothing at all. The two legs are
// the benchmark's fabric workloads: float32 direct convolutions at unit
// parallelism, and int8 with the im2col+GEMM schedule and port parallelism
// the explorer picks, which is the one that dispatches bands to the worker
// pool.
func TestWarmSessionAllocations(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	batch := models.MNISTImages(16, 3)
	for _, tc := range []struct {
		name string
		in   Input
	}{
		{"float32-direct", Input{IR: ir, Weights: ws}},
		{"int8-gemm-dse", Input{IR: ir, Weights: ws, Precision: quant.Int8, RunDSE: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := New().BuildAccelerator(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if tc.in.RunDSE {
				banded := false
				for _, pe := range b.Spec.PEs {
					banded = banded || pe.Par.In > 1 || pe.Par.Out > 1
				}
				if !banded {
					t.Fatal("the explorer chose unit parallelism everywhere: no band dispatch to measure")
				}
			}
			acc, err := b.Fabric()
			if err != nil {
				t.Fatal(err)
			}
			sess := acc.OpenSession()
			defer sess.Close()
			run := func() {
				if _, _, err := sess.RunBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: executors prepared, scratch and DDR buffers sized
			perImage := testing.AllocsPerRun(20, run) / float64(len(batch))
			if perImage > 6 {
				t.Fatalf("%.1f allocations per image on a warm session, want at most 6", perImage)
			}

			var in []float32
			for _, img := range batch {
				in = append(in, img.Data()...)
			}
			out := make([]float32, len(batch)*b.Spec.OutputShape().Volume())
			if n := testing.AllocsPerRun(20, func() {
				if err := sess.RunInto(in, out); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("%.1f allocations per warm 16-image RunInto, want 0", n)
			}
		})
	}
}

// TestLocalInferAllocations bounds a warm 16-image LocalDeployment.Infer in
// the benchmark's two fabric shapes. The kernel streams straight from the
// input buffer into the output buffer, the outputs are views of the one
// read-back array, and the host program with its buffers and staging array
// is taken from the deployment's pool, so what is left is the result array
// and the views: nothing per image. The bound leaves room
// for the race detector, under which sync.Pool drops a share of its puts.
func TestLocalInferAllocations(t *testing.T) {
	ir, ws, err := models.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	ir.Board = "ku115" // the benchmark's locally-deployable board
	batch := models.MNISTImages(16, 3)
	for _, tc := range []struct {
		name string
		in   Input
	}{
		{"float32-direct", Input{IR: ir, Weights: ws}},
		{"int8-gemm-dse", Input{IR: ir, Weights: ws, Precision: quant.Int8, RunDSE: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := New().BuildAccelerator(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := New().DeployLocal(b)
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			infer := func() {
				outs, _, err := dep.Infer(batch)
				if err != nil {
					t.Fatal(err)
				}
				if len(outs) != len(batch) {
					t.Fatalf("%d outputs for %d images", len(outs), len(batch))
				}
			}
			infer() // warm: the compute unit's session is open
			if n := testing.AllocsPerRun(20, infer); n > 32 {
				t.Fatalf("%.1f allocations per 16-image Infer, want at most 32", n)
			} else {
				t.Logf("%.1f allocations per 16-image Infer", n)
			}
		})
	}
}

func TestQuantizedBuild(t *testing.T) {
	in8 := tc1Input(t)
	in8.Precision = quant.Int8
	b8, err := New().BuildAccelerator(in8)
	if err != nil {
		t.Fatal(err)
	}
	if b8.QuantReport == nil || b8.QuantReport.Precision != quant.Int8 {
		t.Fatalf("quant report = %+v", b8.QuantReport)
	}
	if b8.Spec.WordBits != 8 {
		t.Fatalf("spec word bits = %d", b8.Spec.WordBits)
	}
	base, err := New().BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-point MACs shrink the DSP and LUT footprint.
	if b8.Report.KernelTotal.DSP >= base.Report.KernelTotal.DSP {
		t.Fatalf("int8 DSP %v should undercut float32 %v",
			b8.Report.KernelTotal.DSP, base.Report.KernelTotal.DSP)
	}
	if b8.Report.KernelTotal.LUT >= base.Report.KernelTotal.LUT {
		t.Fatalf("int8 LUT %v should undercut float32 %v",
			b8.Report.KernelTotal.LUT, base.Report.KernelTotal.LUT)
	}
	// The quantized fabric still classifies like the float reference.
	acc, err := b8.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	imgs := models.USPSImages(3, 17)
	outs, _, err := acc.Run(imgs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := base.IR.BuildNN(base.Weights)
	if err != nil {
		t.Fatal(err)
	}
	for i := range imgs {
		want, err := ref.Predict(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if outs[i].ArgMax() != want.ArgMax() {
			t.Fatalf("image %d: int8 build changed the prediction", i)
		}
	}
}

func TestWeightsBytesRoundTrip(t *testing.T) {
	b, err := New().BuildAccelerator(tc1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.WeightsBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty weights file")
	}
}
