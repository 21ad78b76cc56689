package sdaccel

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/bitstream"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/models"
	"condor/internal/obs"
	"condor/internal/tensor"
)

// tc1Xclbin compiles float32 TC1 for the given board.
func tc1Xclbin(t *testing.T, boardID string) ([]byte, *condorir.WeightSet) {
	t.Helper()
	return tc1XclbinBits(t, boardID, 32)
}

// tc1XclbinBits compiles TC1 for the given board at the given word width.
func tc1XclbinBits(t *testing.T, boardID string, wordBits int) ([]byte, *condorir.WeightSet) {
	t.Helper()
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	ir.Board = boardID
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	spec.WordBits = wordBits
	xo, err := bitstream.PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	xclbin, _, err := bitstream.XOCC(xo, boardID)
	if err != nil {
		t.Fatal(err)
	}
	return xclbin, ws
}

// TestNonFiniteInputKeepsSession: a NaN pixel on an int8 deployment is a
// rejected request, not a failed fabric — the compute unit keeps its resident
// session and that session serves the next clean batch.
func TestNonFiniteInputKeepsSession(t *testing.T) {
	xclbin, ws := tc1XclbinBits(t, "zc706", 8)
	dev, err := NewDevice("fpga0", "zc706")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadWeights(ws); err != nil {
		t.Fatal(err)
	}
	const inVol, outVol = 16 * 16, 10
	infer := func(img []float32) ([]float32, error) {
		ctx := CreateContext(dev)
		in, out := ctx.CreateBuffer(inVol), ctx.CreateBuffer(outVol)
		ctx.EnqueueWrite(in, img)
		ctx.EnqueueKernel(in, out, 1)
		res := make([]float32, outVol)
		ctx.EnqueueRead(out, res)
		_, err := ctx.Finish()
		return res, err
	}
	clean := models.USPSImages(1, 9)[0].Data()
	want, err := infer(clean)
	if err != nil {
		t.Fatal(err)
	}
	cu := dev.cus[0]
	resident := cu.sess
	if resident == nil {
		t.Fatal("no resident session after the first dispatch")
	}

	poisoned := append([]float32(nil), clean...)
	poisoned[17] = float32(math.NaN())
	if _, err := infer(poisoned); !errors.Is(err, dataflow.ErrNonFiniteInput) {
		t.Fatalf("NaN image: %v, want ErrNonFiniteInput", err)
	}
	if cu.sess != resident {
		t.Fatal("the rejected image cost the compute unit its resident session")
	}
	got, err := infer(clean)
	if err != nil {
		t.Fatalf("clean batch after the rejection: %v", err)
	}
	if cu.sess != resident {
		t.Fatal("the next clean batch was not served by the resident session")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: %v after the rejection, %v before", i, got[i], want[i])
		}
	}
}

func TestLocalDeviceEndToEnd(t *testing.T) {
	xclbin, ws := tc1Xclbin(t, "zc706")
	dev, err := NewDevice("fpga0", "zc706")
	if err != nil {
		t.Fatal(err)
	}
	if dev.Programmed() {
		t.Fatal("fresh device should not be programmed")
	}
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadWeights(ws); err != nil {
		t.Fatal(err)
	}
	meta, err := dev.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Kernel != "condor_TC1" {
		t.Fatalf("meta = %+v", meta)
	}

	ctx := CreateContext(dev)
	batch := 4
	imgs := models.USPSImages(batch, 9)
	inVol := 16 * 16
	in := ctx.CreateBuffer(batch * inVol)
	out := ctx.CreateBuffer(batch * 10)
	host := make([]float32, batch*inVol)
	for i, img := range imgs {
		copy(host[i*inVol:], img.Data())
	}
	ctx.EnqueueWrite(in, host)
	ctx.EnqueueKernel(in, out, batch)
	results := make([]float32, batch*10)
	ctx.EnqueueRead(out, results)
	info, err := ctx.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if info.Images != batch || info.KernelMs <= 0 {
		t.Fatalf("run info = %+v", info)
	}

	// Outputs match the reference engine.
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
		got := tensor.FromSlice(results[i*10:(i+1)*10], 10, 1, 1)
		if !tensor.AllClose(got, want, 2e-3) {
			t.Fatalf("image %d output mismatch", i)
		}
	}
}

func TestF1RefusesDirectLoad(t *testing.T) {
	xclbin, _ := tc1Xclbin(t, "aws-f1-vu9p")
	dev, err := NewDevice("f1slot0", "aws-f1-vu9p")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadXclbin(xclbin); err == nil {
		t.Fatal("F1 must refuse a direct bitstream load")
	}
	// The AFI path works.
	if err := dev.ProgramFromAFI(xclbin); err != nil {
		t.Fatal(err)
	}
	if !dev.Programmed() {
		t.Fatal("device should be programmed after AFI load")
	}
}

func TestBoardMismatchRejected(t *testing.T) {
	xclbin, _ := tc1Xclbin(t, "zc706")
	dev, err := NewDevice("fpga0", "ku115")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadXclbin(xclbin); err == nil {
		t.Fatal("expected board-mismatch error")
	}
}

func TestKernelWithoutWeightsFails(t *testing.T) {
	xclbin, _ := tc1Xclbin(t, "zc706")
	dev, _ := NewDevice("fpga0", "zc706")
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	ctx := CreateContext(dev)
	in := ctx.CreateBuffer(256)
	out := ctx.CreateBuffer(10)
	ctx.EnqueueKernel(in, out, 1)
	if _, err := ctx.Finish(); err == nil {
		t.Fatal("expected no-weights error")
	}
}

func TestBufferOverflowErrors(t *testing.T) {
	xclbin, ws := tc1Xclbin(t, "zc706")
	dev, _ := NewDevice("fpga0", "zc706")
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadWeights(ws); err != nil {
		t.Fatal(err)
	}
	ctx := CreateContext(dev)
	in := ctx.CreateBuffer(10) // too small for one 256-word image
	out := ctx.CreateBuffer(10)
	ctx.EnqueueKernel(in, out, 1)
	if _, err := ctx.Finish(); err == nil {
		t.Fatal("expected input-buffer overflow error")
	}
}

func TestWeightsMustMatchImage(t *testing.T) {
	xclbin, _ := tc1Xclbin(t, "zc706")
	dev, _ := NewDevice("fpga0", "zc706")
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadWeights(condorir.NewWeightSet()); err == nil {
		t.Fatal("expected weight-mismatch error")
	}
}

// A device with SetComputeUnits(n) executes concurrent contexts on distinct
// kernel instances: outputs stay correct, per-CU counters cover all
// dispatches, and the metric samples carry {device, cu} labels.
func TestComputeUnitReplication(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	xclbin, ws := tc1Xclbin(t, "zc706")
	dev, err := NewDevice("fpga0", "zc706")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if err := dev.SetComputeUnits(2); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadWeights(ws); err != nil {
		t.Fatal(err)
	}
	if got := dev.ComputeUnits(); got != 2 {
		t.Fatalf("ComputeUnits() = %d, want 2", got)
	}

	ir, ws2, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	net, err := ir.BuildNN(ws2)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	const perClient = 2
	inVol, outVol := 16*16, 10
	imgs := models.USPSImages(clients, 3)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want, err := net.Predict(imgs[g])
			if err != nil {
				errs[g] = err
				return
			}
			for rep := 0; rep < perClient; rep++ {
				ctx := CreateContext(dev)
				in := ctx.CreateBuffer(inVol)
				out := ctx.CreateBuffer(outVol)
				ctx.EnqueueWrite(in, imgs[g].Data())
				ctx.EnqueueKernel(in, out, 1)
				res := make([]float32, outVol)
				ctx.EnqueueRead(out, res)
				if _, err := ctx.Finish(); err != nil {
					errs[g] = err
					return
				}
				got := tensor.FromSlice(res, outVol, 1, 1)
				if !tensor.AllClose(got, want, 2e-3) {
					errs[g] = fmt.Errorf("client %d rep %d: output mismatch", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	total := dev.Counters()
	if total.Kernels != clients*perClient || total.Images != clients*perClient {
		t.Fatalf("device counters = %+v, want %d kernels/images", total, clients*perClient)
	}
	cus := dev.CUCounters()
	if len(cus) != 2 {
		t.Fatalf("CUCounters has %d entries, want 2", len(cus))
	}
	var sum int64
	for _, c := range cus {
		sum += c.Kernels
	}
	if sum != total.Kernels {
		t.Fatalf("per-CU kernels sum %d != device total %d", sum, total.Kernels)
	}

	reg := obs.NewRegistry()
	RegisterMetrics(reg, dev)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{`cu="0",device="fpga0"`, `cu="1",device="fpga0"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing per-CU label %s:\n%s", want, text)
		}
	}

	// Reprogramming retires the units but keeps device totals monotonic.
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if got := dev.Counters(); got != total {
		t.Fatalf("counters after reprogram = %+v, want %+v", got, total)
	}
}

// TestDeviceClose: Close lands while dispatches are in flight on a
// two-unit device. Each dispatch completes or fails with ErrDeviceClosed —
// none reopens a session on a retired unit — every session goroutine is
// joined, and the closed device refuses program, load, CU changes and
// dispatch while its counters stay readable.
func TestDeviceClose(t *testing.T) {
	xclbin, ws := tc1Xclbin(t, "zc706")
	img := models.USPSImages(1, 2)[0].Data()
	dispatch := func(dev *Device) error {
		ctx := CreateContext(dev)
		in, out := ctx.CreateBuffer(len(img)), ctx.CreateBuffer(10)
		ctx.EnqueueWrite(in, img)
		ctx.EnqueueKernel(in, out, 1)
		_, err := ctx.Finish()
		return err
	}
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		dev, err := NewDevice("fpga0", "zc706")
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.LoadXclbin(xclbin); err != nil {
			t.Fatal(err)
		}
		if err := dev.SetComputeUnits(2); err != nil {
			t.Fatal(err)
		}
		if err := dev.LoadWeights(ws); err != nil {
			t.Fatal(err)
		}
		// Six dispatches on two units: four wait for a busy unit. Close lags
		// by 0–1 ms, stepping across rounds, so it retires units before,
		// while and after dispatches wait on them.
		var wg sync.WaitGroup
		errs := make([]error, 6)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = dispatch(dev)
			}(i)
		}
		time.Sleep(time.Duration(round%5) * 250 * time.Microsecond)
		dev.Close()
		wg.Wait()
		for i, err := range errs {
			if err != nil && !errors.Is(err, ErrDeviceClosed) {
				t.Fatalf("round %d dispatch %d: %v, want success or ErrDeviceClosed", round, i, err)
			}
		}
		dev.Close()
		if !dev.Closed() {
			t.Fatal("Closed() = false after Close")
		}
		for name, err := range map[string]error{
			"dispatch":        dispatch(dev),
			"LoadWeights":     dev.LoadWeights(ws),
			"LoadXclbin":      dev.LoadXclbin(xclbin),
			"SetComputeUnits": dev.SetComputeUnits(1),
		} {
			if !errors.Is(err, ErrDeviceClosed) {
				t.Fatalf("%s after Close = %v, want ErrDeviceClosed", name, err)
			}
		}
		if got, done := dev.Counters().Kernels, countNil(errs); got != int64(done) {
			t.Fatalf("counters after Close report %d kernels, %d dispatches completed", got, done)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != baseline {
		t.Fatalf("%d goroutines after closing every device, %d before", n, baseline)
	}
}

func countNil(errs []error) int {
	n := 0
	for _, err := range errs {
		if err == nil {
			n++
		}
	}
	return n
}

func TestReloadInvalidatesWeights(t *testing.T) {
	xclbin, ws := tc1Xclbin(t, "zc706")
	dev, _ := NewDevice("fpga0", "zc706")
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadWeights(ws); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	ctx := CreateContext(dev)
	in := ctx.CreateBuffer(256)
	out := ctx.CreateBuffer(10)
	ctx.EnqueueKernel(in, out, 1)
	if _, err := ctx.Finish(); err == nil {
		t.Fatal("weights must be reloaded after reprogramming")
	}
}
