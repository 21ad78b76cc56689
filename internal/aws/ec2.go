package aws

import (
	"fmt"
	"sync"

	"condor/internal/condorir"
	"condor/internal/sdaccel"
)

// F1 instance types and their FPGA slot counts.
var f1SlotCounts = map[string]int{
	"f1.2xlarge":  1,
	"f1.4xlarge":  2,
	"f1.16xlarge": 8,
}

// Instance is one running F1 instance with its FPGA slots.
type Instance struct {
	InstanceID   string `json:"InstanceId"`
	InstanceType string `json:"InstanceType"`
	State        string `json:"State"`
	Slots        int    `json:"Slots"`

	devices []*sdaccel.Device
	loaded  []string // agfi id per slot, "" when cleared

	// slotMu serialises the load-weights → run sequence per slot, so
	// concurrent ExecuteInference calls from serving-scheduler goroutines
	// are safe: each targets one slot, different slots run in parallel.
	// Terminate takes it too, so a running host program finishes before
	// the slot's device is closed.
	slotMu []sync.Mutex
}

// SlotStatus reports what an FPGA slot is running.
type SlotStatus struct {
	Slot   int    `json:"Slot"`
	AgfiID string `json:"AgfiId"`
	Status string `json:"Status"` // loaded | cleared
}

// ec2Service manages instances and slot operations.
type ec2Service struct {
	mu        sync.Mutex
	afi       *afiService
	store     *objectStore
	instances map[string]*Instance
	next      int
}

func newEC2Service(afi *afiService, store *objectStore) *ec2Service {
	return &ec2Service{afi: afi, store: store, instances: make(map[string]*Instance)}
}

// runInstance launches an F1 instance of the given type.
func (e *ec2Service) runInstance(instanceType string) (*Instance, error) {
	slots, ok := f1SlotCounts[instanceType]
	if !ok {
		return nil, &apiError{Code: "InvalidInstanceType", Status: 400,
			Message: fmt.Sprintf("%q is not an F1 instance type", instanceType)}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.next++
	inst := &Instance{
		InstanceID:   fmt.Sprintf("i-%017d", e.next),
		InstanceType: instanceType,
		State:        "running",
		Slots:        slots,
		loaded:       make([]string, slots),
		slotMu:       make([]sync.Mutex, slots),
	}
	for s := 0; s < slots; s++ {
		dev, err := sdaccel.NewDevice(fmt.Sprintf("%s/slot%d", inst.InstanceID, s), "aws-f1-vu9p")
		if err != nil {
			return nil, err
		}
		inst.devices = append(inst.devices, dev)
	}
	e.instances[inst.InstanceID] = inst
	return instSnapshot(inst), nil
}

func (e *ec2Service) describeInstances() []*Instance {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Instance, 0, len(e.instances))
	for _, inst := range e.instances {
		out = append(out, instSnapshot(inst))
	}
	return out
}

// terminate shuts an instance down and releases its FPGA slots. The state
// flips first, under e.mu, so no new slot operation starts; each slot's
// device is then closed under its slot lock, after any host program already
// running on it. A terminated instance stays visible to DescribeInstances,
// as on AWS; terminating it again is a no-op.
func (e *ec2Service) terminate(id string) error {
	e.mu.Lock()
	inst, ok := e.instances[id]
	if ok {
		inst.State = "terminated"
	}
	e.mu.Unlock()
	if !ok {
		return &apiError{Code: "InvalidInstanceID.NotFound", Status: 404, Message: id}
	}
	inst.release()
	return nil
}

// terminateAll terminates every instance still running (Server.Close).
func (e *ec2Service) terminateAll() {
	for _, inst := range e.describeInstances() {
		if inst.State == "running" {
			e.terminate(inst.InstanceID) //nolint:errcheck // listed, so it exists
		}
	}
}

// release closes every slot's device, waiting out the host program that
// holds the slot. Called after the state left "running".
func (inst *Instance) release() {
	for s, dev := range inst.devices {
		inst.slotMu[s].Lock()
		dev.Close()
		inst.slotMu[s].Unlock()
	}
}

func incorrectState(state string) error {
	return &apiError{Code: "IncorrectInstanceState", Status: 409, Message: state}
}

func (e *ec2Service) slot(id string, slot int) (*Instance, *sdaccel.Device, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	inst, ok := e.instances[id]
	if !ok {
		return nil, nil, &apiError{Code: "InvalidInstanceID.NotFound", Status: 404, Message: id}
	}
	if inst.State != "running" {
		return nil, nil, incorrectState(inst.State)
	}
	if slot < 0 || slot >= inst.Slots {
		return nil, nil, &apiError{Code: "InvalidSlot", Status: 400,
			Message: fmt.Sprintf("slot %d out of range [0,%d)", slot, inst.Slots)}
	}
	return inst, inst.devices[slot], nil
}

// lockSlot is slot plus the slot lock, which the caller releases. The state
// is checked again once the lock is held: a call that waited out a terminate
// gets IncorrectInstanceState and never touches the closed device.
func (e *ec2Service) lockSlot(id string, slot int) (*Instance, *sdaccel.Device, error) {
	inst, dev, err := e.slot(id, slot)
	if err != nil {
		return nil, nil, err
	}
	inst.slotMu[slot].Lock()
	e.mu.Lock()
	state := inst.State
	e.mu.Unlock()
	if state != "running" {
		inst.slotMu[slot].Unlock()
		return nil, nil, incorrectState(state)
	}
	return inst, dev, nil
}

// loadImage programs an FPGA slot with an available AFI
// (fpga-load-local-image).
func (e *ec2Service) loadImage(instanceID string, slot int, agfi string) error {
	xclbin, err := e.afi.imageForGlobal(agfi)
	if err != nil {
		return err
	}
	inst, dev, err := e.lockSlot(instanceID, slot)
	if err != nil {
		return err
	}
	defer inst.slotMu[slot].Unlock()
	if err := dev.ProgramFromAFI(xclbin); err != nil {
		return &apiError{Code: "FpgaImageLoadFailure", Status: 500, Message: err.Error()}
	}
	e.mu.Lock()
	inst.loaded[slot] = agfi
	e.mu.Unlock()
	return nil
}

// describeSlot reports a slot's loaded image (fpga-describe-local-image).
func (e *ec2Service) describeSlot(instanceID string, slot int) (*SlotStatus, error) {
	inst, _, err := e.slot(instanceID, slot)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := &SlotStatus{Slot: slot, AgfiID: inst.loaded[slot], Status: "cleared"}
	if st.AgfiID != "" {
		st.Status = "loaded"
	}
	return st, nil
}

// InferenceResult is the outcome of running the host application against a
// programmed slot.
type InferenceResult struct {
	Images   int     `json:"Images"`
	KernelMs float64 `json:"KernelMs"`
}

// executeInference stands in for the user's host program running on the F1
// instance (the default host code Condor generates): it pulls the weights
// file and the input batch from S3, runs the batch on the slot's fabric,
// and writes the raw float32 outputs back to S3.
func (e *ec2Service) executeInference(instanceID string, slot int,
	weightsBucket, weightsKey, inputBucket, inputKey, outputBucket, outputKey string, batch int) (*InferenceResult, error) {
	// The whole host-program run — weight load through kernel execution —
	// holds the slot, as the real per-slot host process would.
	inst, dev, err := e.lockSlot(instanceID, slot)
	if err != nil {
		return nil, err
	}
	defer inst.slotMu[slot].Unlock()
	if !dev.Programmed() {
		return nil, &apiError{Code: "FpgaNotProgrammed", Status: 409,
			Message: fmt.Sprintf("slot %d of %s has no image loaded", slot, instanceID)}
	}
	wBytes, err := e.store.get(weightsBucket, weightsKey)
	if err != nil {
		return nil, err
	}
	ws, err := condorir.ParseWeights(wBytes)
	if err != nil {
		return nil, &apiError{Code: "InvalidWeightsFile", Status: 400, Message: err.Error()}
	}
	if err := dev.LoadWeights(ws); err != nil {
		return nil, &apiError{Code: "WeightLoadFailure", Status: 400, Message: err.Error()}
	}
	inBytes, err := e.store.get(inputBucket, inputKey)
	if err != nil {
		return nil, err
	}
	input, err := decodeFloats(inBytes)
	if err != nil {
		return nil, &apiError{Code: "InvalidInput", Status: 400, Message: err.Error()}
	}

	ctx := sdaccel.CreateContext(dev)
	spec, err := dev.Spec()
	if err != nil {
		return nil, &apiError{Code: "FpgaNotProgrammed", Status: 409, Message: err.Error()}
	}
	inVol := spec.Input.Volume()
	outVol := spec.OutputShape().Volume()
	if batch <= 0 || batch*inVol != len(input) {
		return nil, &apiError{Code: "InvalidInput", Status: 400,
			Message: fmt.Sprintf("input has %d words, batch %d needs %d", len(input), batch, batch*inVol)}
	}
	in := ctx.CreateBuffer(batch * inVol)
	out := ctx.CreateBuffer(batch * outVol)
	ctx.EnqueueWrite(in, input)
	ctx.EnqueueKernel(in, out, batch)
	results := make([]float32, batch*outVol)
	ctx.EnqueueRead(out, results)
	info, err := ctx.Finish()
	if err != nil {
		return nil, &apiError{Code: "KernelExecutionFailure", Status: 500, Message: err.Error()}
	}
	if err := e.store.put(outputBucket, outputKey, encodeFloats(results)); err != nil {
		return nil, err
	}
	return &InferenceResult{Images: batch, KernelMs: info.KernelMs}, nil
}

func instSnapshot(i *Instance) *Instance {
	cp := *i
	cp.devices = nil
	cp.slotMu = nil
	cp.loaded = append([]string(nil), i.loaded...)
	return &cp
}
