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
	"condor/internal/diag"
	"condor/internal/obs"
	"condor/internal/perf"
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
	stages  []perf.Stage // the image's pipeline model, priced at program time
	weights *condorir.WeightSet
	tracer  obs.Tracer
	numCUs  int            // requested replication; applied at (re)instantiation
	cus     []*computeUnit // nil until weights are loaded
	rr      uint64         // round-robin cursor for the blocking fallback

	// archived accumulates the counters of compute units retired by a
	// reprogram/reload, keeping device totals monotonic across instantiations.
	archived DeviceCounters
}

// computeUnit is one kernel instance of the programmed design: a replicated
// fabric sharing the device's lowered weights, an execution lock (one
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
	// The fabric has a datapath for 8- and 32-bit words only; any other
	// width would otherwise run as float32 (Spec.Bits).
	if w := x.Spec.WordBits; w != 8 && w != 32 {
		return fmt.Errorf("sdaccel: %w", diag.Errorf(diag.RuleWordBits, "", "",
			"xclbin fabric word width %d bits is not 8 or 32", w))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDeviceClosed
	}
	d.xclbin, d.stages = x, perf.Stages(x.Spec)
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
	d.xclbin, d.stages, d.weights = nil, nil, nil
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
// re-synthesis) and instantiates the fabric. A weight set the fabric refuses
// leaves the device's weights and compute units as they were.
func (d *Device) LoadWeights(ws *condorir.WeightSet) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDeviceClosed
	}
	if d.xclbin == nil {
		return fmt.Errorf("sdaccel: device %s has no image loaded", d.ID)
	}
	prev := d.weights
	d.weights = ws
	if err := d.instantiateLocked(); err != nil {
		d.weights = prev // the device keeps serving the weights it holds
		return err
	}
	return nil
}

// instantiateLocked builds the compute units for the current image, weights
// and replication factor: one fabric is instantiated (the weights are
// checked and lowered once) and replicated into the units, which share that
// plan. Caller holds d.mu.
func (d *Device) instantiateLocked() error {
	acc, err := dataflow.Instantiate(d.xclbin.Spec, d.weights)
	if err != nil {
		return err
	}
	if d.tracer != nil {
		acc.SetTracer(d.tracer)
	}
	d.retireLocked()
	units := acc.Replicate(d.numCUs)
	d.cus = make([]*computeUnit, len(units))
	for i, u := range units {
		d.cus[i] = &computeUnit{acc: u}
	}
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
	dev   *Device
	queue []command
	info  RunInfo
}

// command is one enqueued transfer or kernel launch. The queue holds
// commands by value and is reused after Finish, so a context that runs
// batch after batch allocates no queue entries.
type command struct {
	op    opcode
	buf   *Buffer   // the written, read or kernel-input buffer
	out   *Buffer   // the kernel's output buffer
	host  []float32 // the write's source or the read's destination
	batch int       // the kernel's image count
}

type opcode uint8

const (
	opWrite opcode = iota
	opKernel
	opRead
)

// Buffer is a device-memory allocation of float32 words.
type Buffer struct {
	data []float32
}

// Words returns the buffer capacity.
func (b *Buffer) Words() int { return len(b.data) }

// resize makes the buffer n words long, reallocating only when n exceeds
// what it has held before.
func (b *Buffer) resize(n int) {
	if n > cap(b.data) {
		b.data = make([]float32, n)
	}
	b.data = b.data[:n]
}

// CreateContext opens a command context on the device.
func CreateContext(dev *Device) *Context { return &Context{dev: dev} }

// CreateBuffer allocates a device buffer of n words.
func (c *Context) CreateBuffer(n int) *Buffer {
	return &Buffer{data: make([]float32, n)}
}

// EnqueueWrite copies host data into a device buffer at Finish time, in
// queue order. Like a non-blocking OpenCL write it keeps src by reference:
// the caller must not modify src before Finish.
func (c *Context) EnqueueWrite(b *Buffer, src []float32) {
	c.queue = append(c.queue, command{op: opWrite, buf: b, host: src})
}

// EnqueueRead copies a device buffer back to host memory at Finish time.
func (c *Context) EnqueueRead(b *Buffer, dst []float32) {
	c.queue = append(c.queue, command{op: opRead, buf: b, host: dst})
}

// EnqueueKernel launches the accelerator on batch images stored
// back-to-back in the input buffer, writing outputs back-to-back into the
// output buffer, which must be a different buffer. The compute unit's
// resident session reads the images straight from the input buffer's words
// and writes into the output buffer's, so no image is copied on the way.
// Consecutive kernels on the same unit pipeline back-to-back.
func (c *Context) EnqueueKernel(in, out *Buffer, batch int) {
	c.queue = append(c.queue, command{op: opKernel, buf: in, out: out, batch: batch})
}

// run executes one command.
func (c *Context) run(cmd *command) error {
	switch cmd.op {
	case opWrite:
		if len(cmd.host) > len(cmd.buf.data) {
			return fmt.Errorf("sdaccel: write of %d words overflows buffer of %d", len(cmd.host), len(cmd.buf.data))
		}
		copy(cmd.buf.data, cmd.host)
	case opRead:
		if len(cmd.host) > len(cmd.buf.data) {
			return fmt.Errorf("sdaccel: read of %d words overflows buffer of %d", len(cmd.host), len(cmd.buf.data))
		}
		copy(cmd.host, cmd.buf.data)
	case opKernel:
		return c.kernel(cmd.buf, cmd.out, cmd.batch)
	}
	return nil
}

// kernel runs one batch on a free compute unit of the device.
func (c *Context) kernel(in, out *Buffer, batch int) error {
	dev := c.dev
	dev.mu.Lock()
	closed, xclbin, stages := dev.closed, dev.xclbin, dev.stages
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
	outVol := spec.OutputShape().Volume()
	if batch <= 0 {
		return fmt.Errorf("sdaccel: non-positive batch %d", batch)
	}
	if batch*inVol > len(in.data) {
		return fmt.Errorf("sdaccel: input buffer holds %d words, batch needs %d", len(in.data), batch*inVol)
	}
	if batch*outVol > len(out.data) {
		return fmt.Errorf("sdaccel: output buffer holds %d words, batch needs %d", len(out.data), batch*outVol)
	}
	cu, err := dev.acquireCU()
	if err != nil {
		return err
	}
	if err := cu.session().RunInto(in.data[:batch*inVol], out.data[:batch*outVol]); err != nil {
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
	// Device time from the pipeline model at the achieved clock.
	cycles := perf.BatchCyclesClosedForm(stages, batch)
	ms := perf.CyclesToMs(cycles, xclbin.Meta.AchievedMHz)
	c.info.KernelMs += ms
	c.info.Batches++
	c.info.Images += batch
	cu.cmu.Lock()
	cu.kernels++
	cu.images += int64(batch)
	cu.kernelMs += ms
	cu.cmu.Unlock()
	cu.mu.Unlock()
	return nil
}

// RunInfo accumulates execution metrics across Finish calls.
type RunInfo struct {
	KernelMs float64
	Batches  int
	Images   int
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
	var err error
	for i := range c.queue {
		if err = c.run(&c.queue[i]); err != nil {
			break
		}
	}
	// Drop the host slices with the commands: the queue's array outlives
	// them when the context runs again.
	clear(c.queue)
	c.queue = c.queue[:0]
	return c.info, err
}

// HostProgram is the host half of every kernel dispatch: the sequence the
// generated host code (hls.GenerateHostCode) runs per batch — write the
// images into the input buffer, launch the kernel, read the output buffer
// back. It keeps its context and its two buffers across batches and grows a
// buffer only when a batch outgrows it, so a warm run allocates nothing of
// its own. A HostProgram serves one caller at a time; concurrent callers
// each hold one, and their kernels run on distinct compute units of the
// device.
type HostProgram struct {
	ctx     *Context
	in, out *Buffer
}

// NewHostProgram opens a host program on the device.
func NewHostProgram(dev *Device) *HostProgram {
	ctx := CreateContext(dev)
	return &HostProgram{ctx: ctx, in: ctx.CreateBuffer(0), out: ctx.CreateBuffer(0)}
}

// Run executes batch images stored back to back in in and reads their
// outputs back to back into out, returning the modeled kernel milliseconds.
// The program keeps neither slice.
func (p *HostProgram) Run(in, out []float32, batch int) (float64, error) {
	p.in.resize(len(in))
	p.out.resize(len(out))
	p.ctx.info = RunInfo{}
	p.ctx.EnqueueWrite(p.in, in)
	p.ctx.EnqueueKernel(p.in, p.out, batch)
	p.ctx.EnqueueRead(p.out, out)
	info, err := p.ctx.Finish()
	return info.KernelMs, err
}
