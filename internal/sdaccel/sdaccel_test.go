package sdaccel

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/bitstream"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/diag"
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

// TestCommandsRunInQueueOrder: a write keeps its host slice and copies it at
// Finish in queue order, so write a → kernel → write b → kernel on one input
// buffer gives each kernel its own batch, and the outputs equal two
// single-write contexts bit for bit, on the float32 and the packed int8
// datapath.
func TestCommandsRunInQueueOrder(t *testing.T) {
	for _, bits := range []int{32, 8} {
		t.Run(fmt.Sprintf("bits%d", bits), func(t *testing.T) {
			xclbin, ws := tc1XclbinBits(t, "zc706", bits)
			dev, err := NewDevice("fpga0", "zc706")
			if err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			if err := dev.LoadXclbin(xclbin); err != nil {
				t.Fatal(err)
			}
			if err := dev.LoadWeights(ws); err != nil {
				t.Fatal(err)
			}
			const batch, inVol, outVol = 2, 16 * 16, 10
			flat := func(seed int64) []float32 {
				var words []float32
				for _, img := range models.USPSImages(batch, seed) {
					words = append(words, img.Data()...)
				}
				return words
			}
			a, b := flat(3), flat(4)
			single := func(src []float32) []float32 {
				ctx := CreateContext(dev)
				in, out := ctx.CreateBuffer(batch*inVol), ctx.CreateBuffer(batch*outVol)
				ctx.EnqueueWrite(in, src)
				ctx.EnqueueKernel(in, out, batch)
				res := make([]float32, batch*outVol)
				ctx.EnqueueRead(out, res)
				if _, err := ctx.Finish(); err != nil {
					t.Fatal(err)
				}
				return res
			}
			wantA, wantB := single(a), single(b)

			ctx := CreateContext(dev)
			in := ctx.CreateBuffer(batch * inVol)
			outA, outB := ctx.CreateBuffer(batch*outVol), ctx.CreateBuffer(batch*outVol)
			ctx.EnqueueWrite(in, a)
			ctx.EnqueueKernel(in, outA, batch)
			ctx.EnqueueWrite(in, b)
			ctx.EnqueueKernel(in, outB, batch)
			gotA, gotB := make([]float32, batch*outVol), make([]float32, batch*outVol)
			ctx.EnqueueRead(outA, gotA)
			ctx.EnqueueRead(outB, gotB)
			if _, err := ctx.Finish(); err != nil {
				t.Fatal(err)
			}
			for i := range wantA {
				if math.Float32bits(gotA[i]) != math.Float32bits(wantA[i]) || math.Float32bits(gotB[i]) != math.Float32bits(wantB[i]) {
					t.Fatalf("word %d: queued outputs %v, %v; single-write runs %v, %v", i, gotA[i], gotB[i], wantA[i], wantB[i])
				}
			}
			if slices.Equal(wantA, wantB) {
				t.Fatal("the two batches give equal outputs: the test cannot tell them apart")
			}
		})
	}
}

// TestHostProgramMatchesContext: one HostProgram running batches of 3, 1
// and 5 images — its buffers grow, shrink back and grow again — gives the
// outputs and kernel times of a fresh context per batch bit for bit, float32
// and int8. A batch whose input is short is refused without spoiling the
// next, and a warm run allocates nothing but the session's stats snapshot
// (the RunStats and its two slices).
func TestHostProgramMatchesContext(t *testing.T) {
	for _, bits := range []int{32, 8} {
		t.Run(fmt.Sprintf("bits%d", bits), func(t *testing.T) {
			xclbin, ws := tc1XclbinBits(t, "zc706", bits)
			dev, err := NewDevice("fpga0", "zc706")
			if err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			if err := dev.LoadXclbin(xclbin); err != nil {
				t.Fatal(err)
			}
			if err := dev.LoadWeights(ws); err != nil {
				t.Fatal(err)
			}
			const inVol, outVol = 16 * 16, 10
			prog := NewHostProgram(dev)
			for _, batch := range []int{3, 1, 5} {
				var in []float32
				for _, img := range models.USPSImages(batch, int64(batch)) {
					in = append(in, img.Data()...)
				}
				ctx := CreateContext(dev)
				inBuf, outBuf := ctx.CreateBuffer(batch*inVol), ctx.CreateBuffer(batch*outVol)
				ctx.EnqueueWrite(inBuf, in)
				ctx.EnqueueKernel(inBuf, outBuf, batch)
				want := make([]float32, batch*outVol)
				ctx.EnqueueRead(outBuf, want)
				info, err := ctx.Finish()
				if err != nil {
					t.Fatal(err)
				}
				got := make([]float32, batch*outVol)
				ms, err := prog.Run(in, got, batch)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(tensor.LEBytes(got), tensor.LEBytes(want)) || ms != info.KernelMs {
					t.Fatalf("batch %d: host program gave %v in %v ms, a context %v in %v ms", batch, got, ms, want, info.KernelMs)
				}
				if _, err := prog.Run(in[:len(in)-1], got, batch); err == nil {
					t.Fatalf("batch %d: a short input was accepted", batch)
				}
			}
			in := models.USPSImages(1, 1)[0].Data()
			out := make([]float32, outVol)
			if n := testing.AllocsPerRun(20, func() {
				if _, err := prog.Run(in, out, 1); err != nil {
					t.Fatal(err)
				}
			}); n > 3 {
				t.Fatalf("%.1f allocations per warm run, want at most 3", n)
			}
		})
	}
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

// A refused weight set leaves the loaded one in place: a later CU change
// re-instantiates from the weights the device serves, not the refused ones.
func TestWeightsMustMatchImage(t *testing.T) {
	xclbin, ws := tc1Xclbin(t, "zc706")
	dev, _ := NewDevice("fpga0", "zc706")
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadWeights(condorir.NewWeightSet()); err == nil {
		t.Fatal("expected weight-mismatch error")
	}
	if err := dev.LoadWeights(ws); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadWeights(condorir.NewWeightSet()); err == nil {
		t.Fatal("expected weight-mismatch error")
	}
	if err := dev.SetComputeUnits(2); err != nil {
		t.Fatalf("SetComputeUnits after a refused load: %v", err)
	}
	if n := len(dev.CUCounters()); n != 2 {
		t.Fatalf("%d live compute units, want 2", n)
	}
}

// TestLoadWeightsRejectsBadSpec: a fabric the executors cannot run — TC1's
// pool1 at a stride 3 larger, whose 6×6 windows no longer fit its input —
// is refused when the weights load, so no kernel ever dispatches to it.
func TestLoadWeightsRejectsBadSpec(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	ir.Board = "zc706"
	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range spec.PEs {
		for li := range pe.Layers {
			if pe.Layers[li].Name == "pool1" {
				pe.Layers[li].Stride += 3
			}
		}
	}
	xo, err := bitstream.PackageXO(spec)
	if err != nil {
		t.Fatal(err)
	}
	xclbin, _, err := bitstream.XOCC(xo, "zc706")
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := NewDevice("fpga0", "zc706")
	if err := dev.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadWeights(ws); err == nil || !strings.Contains(err.Error(), "do not fit") {
		t.Fatalf("LoadWeights = %v, want pool1's window grid refused", err)
	}
}

// A device with SetComputeUnits(n) executes concurrent contexts on distinct
// kernel instances: outputs equal a single-unit device's bit for bit, per-CU
// counters cover all dispatches, and the metric samples carry {device, cu}
// labels.
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

	// The reference is the same image and weights on a single-unit device.
	one, err := NewDevice("fpga1", "zc706")
	if err != nil {
		t.Fatal(err)
	}
	if err := one.LoadXclbin(xclbin); err != nil {
		t.Fatal(err)
	}
	if err := one.LoadWeights(ws); err != nil {
		t.Fatal(err)
	}
	const clients = 4
	const perClient = 2
	inVol, outVol := 16*16, 10
	infer := func(dev *Device, img *tensor.Tensor) ([]float32, error) {
		ctx := CreateContext(dev)
		in := ctx.CreateBuffer(inVol)
		out := ctx.CreateBuffer(outVol)
		ctx.EnqueueWrite(in, img.Data())
		ctx.EnqueueKernel(in, out, 1)
		res := make([]float32, outVol)
		ctx.EnqueueRead(out, res)
		_, err := ctx.Finish()
		return res, err
	}
	imgs := models.USPSImages(clients, 3)
	wants := make([][]float32, clients)
	for g, img := range imgs {
		if wants[g], err = infer(one, img); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < perClient; rep++ {
				got, err := infer(dev, imgs[g])
				if err != nil {
					errs[g] = err
					return
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(wants[g][i]) {
						errs[g] = fmt.Errorf("client %d rep %d output %d: %v, single-unit device %v", g, rep, i, got[i], wants[g][i])
						return
					}
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
	// A leak shows as goroutines above the baseline; a goroutine of an
	// earlier test exiting late only lowers the count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
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

// TestWordBitsRejected: a LeNet xclbin whose fabric section claims a word
// width the fabric has no datapath for (16, 7) is refused with CND016 by
// both load paths, and the device stays unprogrammed; the same image at 32
// and 8 bits loads. XOCC refuses to compile the bad widths, so their images
// are the 32-bit one with the width in its fabric section rewritten.
func TestWordBitsRejected(t *testing.T) {
	xclbin := func(boardID string, bits int) []byte {
		ir, _, err := models.LeNet()
		if err != nil {
			t.Fatal(err)
		}
		ir.Board = boardID
		spec, err := dataflow.BuildSpec(ir)
		if err != nil {
			t.Fatal(err)
		}
		if bits == 8 {
			spec.WordBits = 8
		}
		xo, err := bitstream.PackageXO(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := bitstream.XOCC(xo, boardID)
		if err != nil {
			t.Fatal(err)
		}
		if bits == 8 || bits == 32 {
			return data
		}
		sections, err := bitstream.ReadContainer("XCLB", data)
		if err != nil {
			t.Fatal(err)
		}
		for i, sec := range sections {
			if sec.Name != "FABRIC_SPEC" {
				continue
			}
			var fabric map[string]any
			if err := json.Unmarshal(sec.Data, &fabric); err != nil {
				t.Fatal(err)
			}
			fabric["WordBits"] = bits
			if sections[i].Data, err = json.Marshal(fabric); err != nil {
				t.Fatal(err)
			}
		}
		if data, err = bitstream.WriteContainer("XCLB", sections); err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, leg := range []struct {
		name, board string
		load        func(*Device, []byte) error
	}{
		{"ProgramFromAFI", "aws-f1-vu9p", (*Device).ProgramFromAFI},
		{"LoadXclbin", "ku115", (*Device).LoadXclbin},
	} {
		for _, bits := range []int{32, 16, 8, 7} {
			t.Run(fmt.Sprintf("%s/bits%d", leg.name, bits), func(t *testing.T) {
				dev, err := NewDevice("fpga0", leg.board)
				if err != nil {
					t.Fatal(err)
				}
				defer dev.Close()
				err = leg.load(dev, xclbin(leg.board, bits))
				if bits == 32 || bits == 8 {
					if err != nil {
						t.Fatalf("%d-bit image refused: %v", bits, err)
					}
					return
				}
				var d *diag.Diagnostic
				if !errors.As(err, &d) || d.Rule != diag.RuleWordBits {
					t.Fatalf("%d-bit image: error %v, want %s", bits, err, diag.RuleWordBits)
				}
				if dev.Programmed() {
					t.Fatalf("%d-bit image left the device programmed", bits)
				}
			})
		}
	}
}
