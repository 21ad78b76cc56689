package aws

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"condor/internal/bitstream"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/models"
	"condor/internal/tensor"
)

func newTestCloud(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer(Options{AFIGenerationDelay: 5 * time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, LicenseFromAMI())
}

func TestS3RoundTrip(t *testing.T) {
	_, c := newTestCloud(t)
	if err := c.CreateBucket("condor-test"); err != nil {
		t.Fatal(err)
	}
	if err := c.PutObject("condor-test", "designs/a.bin", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	data, err := c.GetObject("condor-test", "designs/a.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{1, 2, 3}) {
		t.Fatalf("object = %v", data)
	}
	keys, err := c.ListObjects("condor-test", "designs/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "designs/a.bin" {
		t.Fatalf("keys = %v", keys)
	}
	if err := c.DeleteObject("condor-test", "designs/a.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetObject("condor-test", "designs/a.bin"); err == nil {
		t.Fatal("expected NoSuchKey after delete")
	}
}

func TestS3Errors(t *testing.T) {
	_, c := newTestCloud(t)
	if _, err := c.GetObject("missing-bucket", "k"); err == nil {
		t.Fatal("expected NoSuchBucket")
	}
	if err := c.CreateBucket("BAD_NAME"); err == nil {
		t.Fatal("expected InvalidBucketName")
	}
	if err := c.CreateBucket("dup-bucket"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBucket("dup-bucket"); err == nil {
		t.Fatal("expected BucketAlreadyExists")
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	srv, c := newTestCloud(t)
	if err := c.CreateBucket("retry-bucket"); err != nil {
		t.Fatal(err)
	}
	srv.FailNextN(2)
	if err := c.PutObject("retry-bucket", "k", []byte("v")); err != nil {
		t.Fatalf("client should retry past transient failures: %v", err)
	}
}

// TestPutObjectPartsSurviveRetries: a body of several parts goes up as the
// parts joined, also when transient failures make the client resend it —
// reading a net.Buffers consumes it, so each attempt needs a fresh one.
func TestPutObjectPartsSurviveRetries(t *testing.T) {
	srv, c := newTestCloud(t)
	if err := c.CreateBucket("parts-bucket"); err != nil {
		t.Fatal(err)
	}
	parts := [][]byte{[]byte("CNDW"), nil, bytes.Repeat([]byte{7}, 70000), []byte("tail")}
	srv.FailNextN(2)
	if err := c.PutObject("parts-bucket", "k", parts...); err != nil {
		t.Fatal(err)
	}
	if r := c.Stats().Retries; r != 2 {
		t.Fatalf("%d retries, want 2", r)
	}
	got, err := c.GetObject("parts-bucket", "k")
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Join(parts, nil); !bytes.Equal(got, want) {
		t.Fatalf("stored %d bytes, want the %d bytes of the joined parts", len(got), len(want))
	}
	if string(parts[0]) != "CNDW" || len(parts[2]) != 70000 {
		t.Fatal("sending the body changed the caller's parts")
	}
	if err := c.PutObject("parts-bucket", "empty"); err != nil {
		t.Fatal(err)
	}
	if got, err := c.GetObject("parts-bucket", "empty"); err != nil || len(got) != 0 {
		t.Fatalf("an object of no parts reads back as %d bytes, %v", len(got), err)
	}
}

func TestClientGivesUpAfterMaxRetries(t *testing.T) {
	srv, c := newTestCloud(t)
	c.MaxRetries = 1
	c.Backoff = time.Millisecond
	srv.FailNextN(10)
	if err := c.CreateBucket("never-bucket"); err == nil {
		t.Fatal("expected exhausted-retries error")
	}
}

// A cloud that drops half of all requests is still usable through the
// client's jittered retries: with enough attempts the chance every retry of
// one request hits an injected fault is negligible.
func TestClientRetriesThroughTransientErrorRate(t *testing.T) {
	srv := NewServer(Options{
		AFIGenerationDelay: 5 * time.Millisecond,
		TransientErrorRate: 0.5,
		TransientErrorSeed: 42,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, LicenseFromAMI())
	c.MaxRetries = 12
	c.Backoff = time.Microsecond
	if err := c.CreateBucket("flaky-bucket"); err != nil {
		t.Fatalf("CreateBucket through 50%% fault rate: %v", err)
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("obj/%d", i)
		if err := c.PutObject("flaky-bucket", key, []byte{byte(i)}); err != nil {
			t.Fatalf("PutObject %d through fault rate: %v", i, err)
		}
		if _, err := c.GetObject("flaky-bucket", key); err != nil {
			t.Fatalf("GetObject %d through fault rate: %v", i, err)
		}
	}
	// Turning the rate off stops the injection entirely.
	srv.SetTransientErrorRate(0)
	c.MaxRetries = 0
	for i := 0; i < 10; i++ {
		if _, err := c.GetObject("flaky-bucket", "obj/0"); err != nil {
			t.Fatalf("request %d failed with the fault rate disabled: %v", i, err)
		}
	}
}

func TestRetryJitterBounds(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, time.Second} {
		for i := 0; i < 100; i++ {
			j := jitter(d)
			if j < d/2 || j > d {
				t.Fatalf("jitter(%v) = %v, want within [%v, %v]", d, j, d/2, d)
			}
		}
	}
	if j := jitter(1); j != 1 {
		t.Fatalf("jitter(1) = %v, want passthrough", j)
	}
}

// buildTC1Tarball compiles TC1 for the F1 and packages the AFI tarball.
func buildTC1Tarball(t *testing.T) ([]byte, *condorir.WeightSet, *dataflow.Spec) {
	t.Helper()
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := bitstream.PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	xclbin, _, err := bitstream.XOCC(xo, "aws-f1-vu9p")
	if err != nil {
		t.Fatal(err)
	}
	tarball, err := bitstream.PackageAFITarball(xclbin)
	if err != nil {
		t.Fatal(err)
	}
	return tarball, ws, spec
}

func TestFullCloudDeploymentRoundTrip(t *testing.T) {
	_, c := newTestCloud(t)
	tarball, ws, spec := buildTC1Tarball(t)

	// 1. Upload the design tarball to the user bucket.
	if err := c.CreateBucket("condor-designs"); err != nil {
		t.Fatal(err)
	}
	if err := c.PutObject("condor-designs", "tc1/design.tar", tarball); err != nil {
		t.Fatal(err)
	}

	// 2. Start AFI generation and wait for availability.
	afi, err := c.CreateFpgaImage("tc1", "condor-designs", "tc1/design.tar", "condor-designs")
	if err != nil {
		t.Fatal(err)
	}
	if afi.State != AFIPending {
		t.Fatalf("fresh AFI state = %q", afi.State)
	}
	final, err := c.WaitForAFI(afi.FpgaImageID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != AFIAvailable {
		t.Fatalf("AFI state = %q (%s)", final.State, final.StateReason)
	}
	// The generation log landed in the logs bucket.
	logData, err := c.GetObject("condor-designs", "logs/"+afi.FpgaImageID+".txt")
	if err != nil || !bytes.Contains(logData, []byte("OK")) {
		t.Fatalf("generation log missing or wrong: %q %v", logData, err)
	}

	// 3. Launch an F1 instance and load the AFI on slot 0.
	inst, err := c.RunInstance("f1.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Slots != 1 {
		t.Fatalf("f1.2xlarge slots = %d", inst.Slots)
	}
	if err := c.LoadFpgaImage(inst.InstanceID, 0, final.FpgaImageGlobalID); err != nil {
		t.Fatal(err)
	}
	st, err := c.DescribeFpgaLocalImage(inst.InstanceID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "loaded" || st.AgfiID != final.FpgaImageGlobalID {
		t.Fatalf("slot status = %+v", st)
	}

	// 4. Upload the weights, then run a batch: the images go in the
	// request, the outputs come back in the reply.
	var wbuf bytes.Buffer
	if err := ws.Write(&wbuf); err != nil {
		t.Fatal(err)
	}
	if err := c.PutObject("condor-designs", "tc1/weights.cndw", wbuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	batch := 3
	imgs := models.USPSImages(batch, 11)
	var flat []float32
	for _, img := range imgs {
		flat = append(flat, img.Data()...)
	}
	res, err := c.ExecuteInference(InferenceJob{
		InstanceID: inst.InstanceID, Slot: 0, Batch: batch,
		Weights: ObjectRef{"condor-designs", "tc1/weights.cndw"},
		Input:   EncodeBatch(flat),
	})
	if err != nil {
		t.Fatal(err)
	}
	outVals := res.Output
	outVol := spec.OutputShape().Volume()
	if len(outVals) != batch*outVol || res.KernelMs <= 0 {
		t.Fatalf("inference result: %d output words (want %d), %v kernel ms", len(outVals), batch*outVol, res.KernelMs)
	}
	if keys, err := c.ListObjects("condor-designs", ""); err != nil || len(keys) != 3 {
		t.Fatalf("bucket holds %v (%v); a batch must stage nothing in S3 beside the design, its log and the weights", keys, err)
	}

	// Validate against the reference engine.
	ir, ws2, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	net, err := ir.BuildNN(ws2)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		want, err := net.Predict(img)
		if err != nil {
			t.Fatal(err)
		}
		got := tensor.FromSlice(outVals[i*outVol:(i+1)*outVol], outVol, 1, 1)
		if !tensor.AllClose(got, want.Reshape(outVol, 1, 1), 2e-3) {
			t.Fatalf("cloud inference image %d differs from reference", i)
		}
	}

	// 5. Terminate.
	if err := c.TerminateInstance(inst.InstanceID); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadFpgaImage(inst.InstanceID, 0, final.FpgaImageGlobalID); err == nil {
		t.Fatal("terminated instance must refuse slot operations")
	}
}

func TestCreateFpgaImageRequiresLicense(t *testing.T) {
	srv := NewServer(Options{AFIGenerationDelay: time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	unlicensed := NewClient(ts.URL, "") // outside the FPGA Developer AMI
	if err := unlicensed.CreateBucket("lic-bucket"); err != nil {
		t.Fatal(err)
	}
	if err := unlicensed.PutObject("lic-bucket", "d.tar", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, err := unlicensed.CreateFpgaImage("x", "lic-bucket", "d.tar", "")
	if err == nil {
		t.Fatal("AFI creation must require the Developer AMI licence")
	}
	if ae, ok := err.(*apiError); !ok || ae.Code != "LicenseRequired" {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAFIGenerationFailsOnCorruptTarball(t *testing.T) {
	_, c := newTestCloud(t)
	if err := c.CreateBucket("bad-bucket"); err != nil {
		t.Fatal(err)
	}
	if err := c.PutObject("bad-bucket", "bad.tar", []byte("not a tarball")); err != nil {
		t.Fatal(err)
	}
	afi, err := c.CreateFpgaImage("bad", "bad-bucket", "bad.tar", "bad-bucket")
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitForAFI(afi.FpgaImageID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != AFIFailed || final.StateReason == "" {
		t.Fatalf("corrupt tarball should fail generation: %+v", final)
	}
	// The failure log is written too.
	logData, err := c.GetObject("bad-bucket", "logs/"+afi.FpgaImageID+".txt")
	if err != nil || !bytes.Contains(logData, []byte("FAILED")) {
		t.Fatalf("failure log missing: %q %v", logData, err)
	}
}

func TestCreateFpgaImageMissingInput(t *testing.T) {
	_, c := newTestCloud(t)
	if err := c.CreateBucket("empty-bucket"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFpgaImage("x", "empty-bucket", "missing.tar", ""); err == nil {
		t.Fatal("expected NoSuchKey for missing tarball")
	}
}

func TestLoadPendingAFIRejected(t *testing.T) {
	srv := NewServer(Options{AFIGenerationDelay: time.Hour}) // stays pending
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, LicenseFromAMI())
	tarball, _, _ := buildTC1Tarball(t)
	if err := c.CreateBucket("pend-bucket"); err != nil {
		t.Fatal(err)
	}
	if err := c.PutObject("pend-bucket", "d.tar", tarball); err != nil {
		t.Fatal(err)
	}
	afi, err := c.CreateFpgaImage("p", "pend-bucket", "d.tar", "")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.RunInstance("f1.16xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Slots != 8 {
		t.Fatalf("f1.16xlarge slots = %d", inst.Slots)
	}
	if err := c.LoadFpgaImage(inst.InstanceID, 0, afi.FpgaImageGlobalID); err == nil {
		t.Fatal("loading a pending AFI must fail")
	}
}

func TestRunInstanceInvalidType(t *testing.T) {
	_, c := newTestCloud(t)
	if _, err := c.RunInstance("m5.large"); err == nil {
		t.Fatal("expected InvalidInstanceType")
	}
}

func TestSlotOutOfRange(t *testing.T) {
	_, c := newTestCloud(t)
	inst, err := c.RunInstance("f1.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DescribeFpgaLocalImage(inst.InstanceID, 3); err == nil {
		t.Fatal("expected InvalidSlot")
	}
}

func TestExecuteInferenceWithoutImage(t *testing.T) {
	_, c := newTestCloud(t)
	inst, err := c.RunInstance("f1.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBucket("inf-bucket"); err != nil {
		t.Fatal(err)
	}
	_, err = c.ExecuteInference(InferenceJob{
		InstanceID: inst.InstanceID, Slot: 0, Batch: 1,
		Weights: ObjectRef{"inf-bucket", "w"},
		Input:   EncodeBatch(make([]float32, 16)),
	})
	if ae, ok := err.(*apiError); !ok || ae.Code != "FpgaNotProgrammed" {
		t.Fatalf("ExecuteInference on an empty slot = %v, want FpgaNotProgrammed", err)
	}
}

func TestEncodeDecodeBatch(t *testing.T) {
	vals := []float32{1.5, -2, 0}
	out, err := DecodeBatch(EncodeBatch(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("round trip %v vs %v", out, vals)
		}
	}
	if _, err := DecodeBatch([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected misalignment error")
	}
}

func TestS3ConcurrentClients(t *testing.T) {
	_, c := newTestCloud(t)
	if err := c.CreateBucket("concurrent-bucket"); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 20
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d/obj%d", w, i)
				val := []byte(fmt.Sprintf("payload-%d-%d", w, i))
				if err := c.PutObject("concurrent-bucket", key, val); err != nil {
					errs <- err
					return
				}
				got, err := c.GetObject("concurrent-bucket", key)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, val) {
					errs <- fmt.Errorf("w%d obj%d corrupted", w, i)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	keys, err := c.ListObjects("concurrent-bucket", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != workers*perWorker {
		t.Fatalf("object count %d, want %d", len(keys), workers*perWorker)
	}
}

func TestConcurrentSlotInference(t *testing.T) {
	_, c := newTestCloud(t)
	tarball, ws, spec := buildTC1Tarball(t)
	if err := c.CreateBucket("multi-slot"); err != nil {
		t.Fatal(err)
	}
	if err := c.PutObject("multi-slot", "d.tar", tarball); err != nil {
		t.Fatal(err)
	}
	afi, err := c.CreateFpgaImage("m", "multi-slot", "d.tar", "")
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitForAFI(afi.FpgaImageID, 5*time.Second)
	if err != nil || final.State != AFIAvailable {
		t.Fatalf("AFI: %v %v", final, err)
	}
	inst, err := c.RunInstance("f1.16xlarge")
	if err != nil {
		t.Fatal(err)
	}
	var wbuf bytes.Buffer
	if err := ws.Write(&wbuf); err != nil {
		t.Fatal(err)
	}
	if err := c.PutObject("multi-slot", "w.cndw", wbuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	inVol, outVol := spec.Input.Volume(), spec.OutputShape().Volume()
	// Program 4 slots and run inference on all of them concurrently.
	const slots = 4
	errs := make(chan error, slots)
	for s := 0; s < slots; s++ {
		if err := c.LoadFpgaImage(inst.InstanceID, s, final.FpgaImageGlobalID); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < slots; s++ {
		go func(s int) {
			imgs := models.USPSImages(2, int64(100+s))
			var flat []float32
			for _, img := range imgs {
				flat = append(flat, img.Data()...)
			}
			if len(flat) != 2*inVol {
				errs <- fmt.Errorf("bad input size")
				return
			}
			res, err := c.ExecuteInference(InferenceJob{
				InstanceID: inst.InstanceID, Slot: s, Batch: 2,
				Weights: ObjectRef{"multi-slot", "w.cndw"},
				Input:   EncodeBatch(flat),
			})
			if err == nil && len(res.Output) != 2*outVol {
				err = fmt.Errorf("slot %d: %d output words, want %d", s, len(res.Output), 2*outVol)
			}
			errs <- err
		}(s)
	}
	for s := 0; s < slots; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuiesceJoinsGeneration: Quiesce blocks until the asynchronous AFI
// pipeline has drained, so a describe immediately afterwards sees a terminal
// state without polling WaitForAFI.
func TestQuiesceJoinsGeneration(t *testing.T) {
	srv := NewServer(Options{AFIGenerationDelay: 5 * time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, LicenseFromAMI())
	tarball, _, _ := buildTC1Tarball(t)
	if err := c.CreateBucket("q-bucket"); err != nil {
		t.Fatal(err)
	}
	if err := c.PutObject("q-bucket", "d.tar", tarball); err != nil {
		t.Fatal(err)
	}
	afi, err := c.CreateFpgaImage("q", "q-bucket", "d.tar", "")
	if err != nil {
		t.Fatal(err)
	}
	srv.Quiesce()
	recs, err := c.DescribeFpgaImages(afi.FpgaImageID)
	if err != nil || len(recs) != 1 {
		t.Fatalf("describe after quiesce: %v %v", recs, err)
	}
	if recs[0].State != AFIAvailable {
		t.Fatalf("state after quiesce = %s, want %s", recs[0].State, AFIAvailable)
	}
}
