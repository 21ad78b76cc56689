// Package sdaccel is the host-side runtime of the Condor backend: an
// OpenCL-like device/context/buffer/queue API that loads the xclbin
// produced by the packaging flow onto a (simulated) FPGA card and executes
// inference batches on the dataflow fabric. Kernel execution time is
// reported from the cycle-level performance model at the achieved clock, so
// host programs observe the timing behaviour the paper measures (Figure 5).
package sdaccel

import (
	"errors"
	"fmt"
	"sync"

	"condor/internal/bitstream"
	"condor/internal/board"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/obs"
	"condor/internal/perf"
	"condor/internal/tensor"
)

// ErrDeviceClosed is returned by every call that would program, load or
// dispatch on a device after Close: a released card is never silently
// re-instantiated.
var ErrDeviceClosed = errors.New("sdaccel: device closed")

// Device models one FPGA card visible to the runtime. The card carries one
// or more compute units — replicated kernel instances of the programmed
// design, the CU replication knob of the packaging flow — and each unit runs
// one kernel at a time behind its own lock, so a device executes up to
// ComputeUnits() kernels concurrently. Device state transitions (program,
// weight load, CU count, Close) stay behind the device mutex; scheduler
// goroutines of the serving tier may share a Device without external
// locking.
type Device struct {
	ID    string
	Board *board.Board

	mu      sync.Mutex
	closed  bool
	xclbin  *bitstream.Xclbin
	weights *condorir.WeightSet
	tracer  obs.Tracer
	numCUs  int            // requested replication; applied at (re)instantiation
	cus     []*computeUnit // nil until weights are loaded
	rr      uint64         // round-robin cursor for the blocking fallback

	// archived accumulates the counters of compute units retired by a
	// reprogram/reload, keeping device totals monotonic across instantiations.
	archived DeviceCounters
}

// computeUnit is one kernel instance of the programmed design: a cloned
// fabric sharing the device's sealed weight store, an execution lock (one
// kernel at a time per unit, as in hardware) and private dispatch counters.
// Dispatches run through a resident streaming session, so back-to-back
// batches on the same unit pipeline at the fabric's steady-state initiation
// interval instead of draining between kernels.
type computeUnit struct {
	mu      sync.Mutex // execution lock: held for the duration of one kernel run
	acc     *dataflow.Accelerator
	sess    *dataflow.Session // resident session; opened lazily, nil when closed
	retired bool              // dropped from the device; set under mu, never reopens a session

	// Counters live behind their own lock so metric scrapes read them
	// mid-kernel instead of stalling behind a running dispatch.
	cmu      sync.Mutex
	kernels  int64
	images   int64
	kernelMs float64
}

// session returns the unit's resident streaming session, opening it on first
// dispatch. Caller holds cu.mu.
func (cu *computeUnit) session() *dataflow.Session {
	if cu.sess == nil {
		cu.sess = cu.acc.OpenSession()
	}
	return cu.sess
}

// closeSession joins and drops the resident session (no-op when none is
// open). The teardown error, if any, was already reported by the dispatch
// that failed, so it is discarded here. Caller holds cu.mu.
func (cu *computeUnit) closeSession() {
	if cu.sess != nil {
		_ = cu.sess.Close()
		cu.sess = nil
	}
}

func (cu *computeUnit) counters() DeviceCounters {
	cu.cmu.Lock()
	defer cu.cmu.Unlock()
	return DeviceCounters{Kernels: cu.kernels, Images: cu.images, KernelMs: cu.kernelMs}
}

func (c *DeviceCounters) add(o DeviceCounters) {
	c.Kernels += o.Kernels
	c.Images += o.Images
	c.KernelMs += o.KernelMs
}

// DeviceCounters is a snapshot of a device's cumulative execution figures.
type DeviceCounters struct {
	Kernels  int64   // kernel dispatches executed
	Images   int64   // images inferred
	KernelMs float64 // modeled device-busy milliseconds
}

// Counters snapshots the device's execution accounting: the sum over its
// compute units plus anything archived from earlier instantiations.
func (d *Device) Counters() DeviceCounters {
	d.mu.Lock()
	total := d.archived
	cus := d.cus
	d.mu.Unlock()
	for _, cu := range cus {
		total.add(cu.counters())
	}
	return total
}

// CUCounters snapshots each live compute unit's accounting, indexed by CU.
func (d *Device) CUCounters() []DeviceCounters {
	d.mu.Lock()
	cus := d.cus
	d.mu.Unlock()
	out := make([]DeviceCounters, len(cus))
	for i, cu := range cus {
		out[i] = cu.counters()
	}
	return out
}

// SetComputeUnits sets the device's kernel replication factor (minimum 1).
// When weights are already loaded the fabric pool is rebuilt immediately;
// otherwise the count is applied at the next LoadWeights. Counters of
// retired units are archived into the device totals.
func (d *Device) SetComputeUnits(n int) error {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDeviceClosed
	}
	d.numCUs = n
	if d.weights == nil || d.xclbin == nil {
		return nil
	}
	return d.instantiateLocked()
}

// ComputeUnits returns the device's configured replication factor.
func (d *Device) ComputeUnits() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.numCUs < 1 {
		return 1
	}
	return d.numCUs
}

// SetTracer attaches a span tracer to the device's fabrics: subsequent
// kernel executions record feeder/PE/collector spans into it (per-CU track
// prefixes keep replicated units apart). The tracer survives weight reloads;
// pass nil to detach.
func (d *Device) SetTracer(t obs.Tracer) {
	d.mu.Lock()
	d.tracer = t
	cus := d.cus
	d.mu.Unlock()
	// Take each unit's execution lock so the tracer swap cannot race a
	// running kernel, and retire the resident session: fabric tracks are
	// registered when a session opens, so the next dispatch reopens one
	// against the new tracer.
	for _, cu := range cus {
		cu.mu.Lock()
		cu.closeSession()
		cu.acc.SetTracer(t)
		cu.mu.Unlock()
	}
}

// RegisterMetrics exposes the execution counters of the given devices
// through reg under the condor_sdaccel_* families, labelled by device id and
// read at scrape time. A device with a replicated fabric reports one sample
// per compute unit, labelled {device, cu}; a single-unit device keeps the
// plain per-device label so existing dashboards are unchanged. Register each
// family once per registry: pass every device in one call.
func RegisterMetrics(reg *obs.Registry, devices ...*Device) {
	perDevice := func(fn func(DeviceCounters) float64) func() []obs.Sample {
		return func() []obs.Sample {
			var out []obs.Sample
			for _, d := range devices {
				if cus := d.CUCounters(); len(cus) > 1 {
					for i, c := range cus {
						out = append(out, obs.Sample{
							Labels: []obs.Label{obs.L("device", d.ID), obs.L("cu", fmt.Sprintf("%d", i))},
							Value:  fn(c),
						})
					}
					continue
				}
				out = append(out, obs.Sample{
					Labels: []obs.Label{obs.L("device", d.ID)},
					Value:  fn(d.Counters()),
				})
			}
			return out
		}
	}
	reg.Func("condor_sdaccel_kernels_total", obs.TypeCounter,
		"Kernel dispatches executed per device.",
		perDevice(func(c DeviceCounters) float64 { return float64(c.Kernels) }))
	reg.Func("condor_sdaccel_images_total", obs.TypeCounter,
		"Images inferred per device.",
		perDevice(func(c DeviceCounters) float64 { return float64(c.Images) }))
	reg.Func("condor_sdaccel_kernel_ms_total", obs.TypeCounter,
		"Modeled device-busy milliseconds per device.",
		perDevice(func(c DeviceCounters) float64 { return c.KernelMs }))
}

// NewDevice creates a device backed by the catalogued board.
func NewDevice(id, boardID string) (*Device, error) {
	b, err := board.Lookup(boardID)
	if err != nil {
		return nil, err
	}
	return &Device{ID: id, Board: b}, nil
}

// LoadXclbin programs the device with a kernel binary. F1 devices refuse a
// direct bitstream load — "it is not possible to load a bitstream directly
// onto the FPGAs of an F1 instance" — the AFI flow must be used instead.
func (d *Device) LoadXclbin(data []byte) error {
	if d.Board.CloudOnly {
		return fmt.Errorf("sdaccel: device %s (%s) cannot be programmed directly; create an AFI and load it on an F1 slot", d.ID, d.Board.ID)
	}
	return d.program(data)
}

// ProgramFromAFI is the F1-slot load path used by the cloud service after
// AFI generation; it bypasses the direct-load restriction.
func (d *Device) ProgramFromAFI(xclbinData []byte) error {
	return d.program(xclbinData)
}

func (d *Device) program(data []byte) error {
	x, err := bitstream.ReadXclbin(data)
	if err != nil {
		return err
	}
	if x.Meta.Board != d.Board.ID {
		return fmt.Errorf("sdaccel: xclbin targets %s, device is %s", x.Meta.Board, d.Board.ID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDeviceClosed
	}
	d.xclbin = x
	d.retireLocked() // weights must be (re)loaded for the new image
	return nil
}

// retireLocked archives the live compute units' counters into the device
// totals and drops the units, joining each unit's resident session first
// (taking the execution lock waits out any in-flight kernel). Caller holds
// d.mu.
func (d *Device) retireLocked() {
	for _, cu := range d.cus {
		cu.mu.Lock()
		cu.closeSession()
		cu.retired = true
		cu.mu.Unlock()
		d.archived.add(cu.counters())
	}
	d.cus = nil
}

// Close releases the card: every compute unit's resident session is joined
// (an in-flight kernel finishes first) and the image, the weights and the
// fabric are dropped, so nothing the device instantiated stays reachable
// through it. Afterwards program, weight load, CU count changes and
// dispatch fail with ErrDeviceClosed; the counters stay readable. Close is
// idempotent.
func (d *Device) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.retireLocked()
	d.xclbin, d.weights = nil, nil
}

// Closed reports whether Close has run.
func (d *Device) Closed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// Programmed reports whether a kernel image is loaded.
func (d *Device) Programmed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.xclbin != nil
}

// Spec returns the fabric specification of the loaded image.
func (d *Device) Spec() (*dataflow.Spec, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.xclbin == nil {
		return nil, fmt.Errorf("sdaccel: device %s has no image loaded", d.ID)
	}
	return d.xclbin.Spec, nil
}

// Meta returns the loaded image's metadata.
func (d *Device) Meta() (bitstream.Metadata, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.xclbin == nil {
		return bitstream.Metadata{}, fmt.Errorf("sdaccel: device %s has no image loaded", d.ID)
	}
	return d.xclbin.Meta, nil
}

// LoadWeights transfers the network weights to the device's on-board memory
// (the dynamic weight-load step that lets a retrained network run without
// re-synthesis) and instantiates the fabric.
func (d *Device) LoadWeights(ws *condorir.WeightSet) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDeviceClosed
	}
	if d.xclbin == nil {
		return fmt.Errorf("sdaccel: device %s has no image loaded", d.ID)
	}
	d.weights = ws
	return d.instantiateLocked()
}

// instantiateLocked builds the compute-unit pool for the current image,
// weights and replication factor: one fabric is instantiated (weights load
// once into the sealed store) and cloned into the remaining units, which
// share the store by reference. Caller holds d.mu.
func (d *Device) instantiateLocked() error {
	acc, err := dataflow.Instantiate(d.xclbin.Spec, d.weights)
	if err != nil {
		return err
	}
	if d.tracer != nil {
		acc.SetTracer(d.tracer)
	}
	n := d.numCUs
	if n < 1 {
		n = 1
	}
	pool := dataflow.NewCUPool(acc, n)
	d.retireLocked()
	cus := make([]*computeUnit, n)
	for i := range cus {
		cus[i] = &computeUnit{acc: pool.CU(i)}
	}
	d.cus = cus
	return nil
}

// acquireCU returns a live compute unit with its execution lock held. A unit
// retired while the dispatch waited for it (a reload, a reprogram or Close)
// must not reopen its session, so the dispatch picks again from the current
// pool.
func (d *Device) acquireCU() (*computeUnit, error) {
	for {
		cu, err := d.lockCU()
		if err != nil || !cu.retired {
			return cu, err
		}
		cu.mu.Unlock()
	}
}

// lockCU locks one unit of the current pool. A TryLock scan starting at the
// round-robin cursor grabs an idle unit without blocking; when every unit is
// busy the caller blocks on the cursor's unit, so waiting dispatches spread
// across the units instead of piling onto one.
func (d *Device) lockCU() (*computeUnit, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrDeviceClosed
	}
	cus := d.cus
	var start int
	if len(cus) > 0 {
		start = int(d.rr % uint64(len(cus)))
		d.rr++
	}
	d.mu.Unlock()
	if len(cus) == 0 {
		return nil, fmt.Errorf("sdaccel: device %s has no weights loaded", d.ID)
	}
	for i := 0; i < len(cus); i++ {
		cu := cus[(start+i)%len(cus)]
		if cu.mu.TryLock() {
			return cu, nil
		}
	}
	cu := cus[start]
	cu.mu.Lock()
	return cu, nil
}

// Context is an OpenCL-like command context on one device.
type Context struct {
	dev     *Device
	buffers []*Buffer
	queue   []func() error
	info    RunInfo
}

// Buffer is a device-memory allocation of float32 words.
type Buffer struct {
	id   int
	data []float32
}

// Words returns the buffer capacity.
func (b *Buffer) Words() int { return len(b.data) }

// CreateContext opens a command context on the device.
func CreateContext(dev *Device) *Context { return &Context{dev: dev} }

// CreateBuffer allocates a device buffer of n words.
func (c *Context) CreateBuffer(n int) *Buffer {
	b := &Buffer{id: len(c.buffers), data: make([]float32, n)}
	c.buffers = append(c.buffers, b)
	return b
}

// EnqueueWrite copies host data into a device buffer.
func (c *Context) EnqueueWrite(b *Buffer, src []float32) {
	cp := make([]float32, len(src))
	copy(cp, src)
	c.queue = append(c.queue, func() error {
		if len(cp) > len(b.data) {
			return fmt.Errorf("sdaccel: write of %d words overflows buffer of %d", len(cp), len(b.data))
		}
		copy(b.data, cp)
		return nil
	})
}

// EnqueueRead copies a device buffer back to host memory at Finish time.
func (c *Context) EnqueueRead(b *Buffer, dst []float32) {
	c.queue = append(c.queue, func() error {
		if len(dst) > len(b.data) {
			return fmt.Errorf("sdaccel: read of %d words overflows buffer of %d", len(dst), len(b.data))
		}
		copy(dst, b.data)
		return nil
	})
}

// EnqueueKernel launches the accelerator on batch images stored
// back-to-back in the input buffer, writing outputs back-to-back into the
// output buffer. The dispatch streams the batch through the compute unit's
// resident session, so consecutive kernels on the same unit pipeline
// back-to-back; the RunStats recorded into RunInfo.LastStats are cumulative
// over the session's lifetime, matching what one continuous run reports.
func (c *Context) EnqueueKernel(in, out *Buffer, batch int) {
	c.queue = append(c.queue, func() error {
		dev := c.dev
		dev.mu.Lock()
		closed, xclbin := dev.closed, dev.xclbin
		loaded := len(dev.cus) > 0
		dev.mu.Unlock()
		if closed {
			return ErrDeviceClosed
		}
		if xclbin == nil || !loaded {
			return fmt.Errorf("sdaccel: device %s has no weights loaded", dev.ID)
		}
		spec := xclbin.Spec
		inVol := spec.Input.Volume()
		outShape := spec.OutputShape()
		outVol := outShape.Volume()
		if batch <= 0 {
			return fmt.Errorf("sdaccel: non-positive batch %d", batch)
		}
		if batch*inVol > len(in.data) {
			return fmt.Errorf("sdaccel: input buffer holds %d words, batch needs %d", len(in.data), batch*inVol)
		}
		if batch*outVol > len(out.data) {
			return fmt.Errorf("sdaccel: output buffer holds %d words, batch needs %d", len(out.data), batch*outVol)
		}
		imgs := make([]*tensor.Tensor, batch)
		for i := range imgs {
			img := tensor.New(spec.Input.Channels, spec.Input.Height, spec.Input.Width)
			copy(img.Data(), in.data[i*inVol:(i+1)*inVol])
			imgs[i] = img
		}
		cu, err := dev.acquireCU()
		if err != nil {
			return err
		}
		outs, stats, err := cu.session().RunBatch(imgs)
		if err != nil {
			// A failed session is sticky; retire it so the next dispatch
			// reopens a fresh fabric instead of failing forever. A rejected
			// input is not a failed session: nothing was fed, and the
			// resident fabric serves the next batch.
			if !errors.Is(err, dataflow.ErrNonFiniteInput) {
				cu.closeSession()
			}
			cu.mu.Unlock()
			return err
		}
		for i, o := range outs {
			copy(out.data[i*outVol:(i+1)*outVol], o.Data())
		}
		// Device time from the pipeline model at the achieved clock (the
		// recurrence the discrete-event simulation is cross-checked against).
		cycles := perf.BatchCyclesClosedForm(perf.Stages(spec), batch)
		ms := perf.CyclesToMs(cycles, xclbin.Meta.AchievedMHz)
		c.info.KernelMs += ms
		c.info.Batches++
		c.info.Images += batch
		c.info.LastStats = stats
		cu.cmu.Lock()
		cu.kernels++
		cu.images += int64(batch)
		cu.kernelMs += ms
		cu.cmu.Unlock()
		cu.mu.Unlock()
		return nil
	})
}

// RunInfo accumulates execution metrics across Finish calls.
type RunInfo struct {
	KernelMs  float64
	Batches   int
	Images    int
	LastStats *dataflow.RunStats
}

// Finish executes all enqueued commands in order and returns the
// accumulated run info. Buffer transfers touch only the context's own
// buffers; kernel dispatches acquire one of the device's compute units for
// the duration of the run. The device mutex is NOT held across the command
// sequence, so contexts created by concurrent goroutines (the serving
// scheduler, the cloud service's per-slot host programs) execute in parallel
// up to the device's compute-unit count and serialise per unit beyond it —
// exactly the concurrency a replicated physical card offers.
func (c *Context) Finish() (RunInfo, error) {
	for _, cmd := range c.queue {
		if err := cmd(); err != nil {
			c.queue = nil
			return c.info, err
		}
	}
	c.queue = nil
	return c.info, nil
}
