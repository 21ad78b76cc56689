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

	fpga []*fpgaSlot
}

// fpgaSlot is one FPGA slot of an instance: its device and the host program
// that feeds it, which stays resident between batches with the weights it
// loaded.
type fpgaSlot struct {
	// mu serialises the load-weights → run sequence per slot, so
	// concurrent ExecuteInference calls from serving-scheduler goroutines
	// are safe: each targets one slot, different slots run in parallel.
	// Image loads and terminate take it too, so a running host program
	// finishes before the slot is reprogrammed or its device closed.
	mu   sync.Mutex
	dev  *sdaccel.Device
	agfi string               // the loaded image, "" when cleared; guarded by ec2Service.mu
	prog *sdaccel.HostProgram // opened by the first batch, dropped by terminate
	// weights names the object the fabric was last loaded from, the zero
	// value when it holds none. A batch whose weights object still has this
	// bucket, key and generation skips the parse and the load.
	weights weightsVersion
}

// weightsVersion identifies one stored weights object.
type weightsVersion struct {
	bucket, key string
	gen         uint64
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
	}
	for s := 0; s < slots; s++ {
		dev, err := sdaccel.NewDevice(fmt.Sprintf("%s/slot%d", inst.InstanceID, s), "aws-f1-vu9p")
		if err != nil {
			return nil, err
		}
		inst.fpga = append(inst.fpga, &fpgaSlot{dev: dev})
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

// release closes every slot's device and drops its host program, waiting
// out a batch that holds the slot. Called after the state left "running".
func (inst *Instance) release() {
	for _, sl := range inst.fpga {
		sl.mu.Lock()
		sl.dev.Close()
		sl.prog, sl.weights = nil, weightsVersion{}
		sl.mu.Unlock()
	}
}

func incorrectState(state string) error {
	return &apiError{Code: "IncorrectInstanceState", Status: 409, Message: state}
}

func (e *ec2Service) slot(id string, slot int) (*Instance, *fpgaSlot, error) {
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
	return inst, inst.fpga[slot], nil
}

// lockSlot is slot plus the slot lock, which the caller releases. The state
// is checked again once the lock is held: a call that waited out a terminate
// gets IncorrectInstanceState and never touches the closed device.
func (e *ec2Service) lockSlot(id string, slot int) (*fpgaSlot, error) {
	inst, sl, err := e.slot(id, slot)
	if err != nil {
		return nil, err
	}
	sl.mu.Lock()
	e.mu.Lock()
	state := inst.State
	e.mu.Unlock()
	if state != "running" {
		sl.mu.Unlock()
		return nil, incorrectState(state)
	}
	return sl, nil
}

// loadImage programs an FPGA slot with an available AFI
// (fpga-load-local-image). The new image drops the weights the fabric held.
func (e *ec2Service) loadImage(instanceID string, slot int, agfi string) error {
	xclbin, err := e.afi.imageForGlobal(agfi)
	if err != nil {
		return err
	}
	sl, err := e.lockSlot(instanceID, slot)
	if err != nil {
		return err
	}
	defer sl.mu.Unlock()
	sl.weights = weightsVersion{}
	if err := sl.dev.ProgramFromAFI(xclbin); err != nil {
		return &apiError{Code: "FpgaImageLoadFailure", Status: 500, Message: err.Error()}
	}
	e.mu.Lock()
	sl.agfi = agfi
	e.mu.Unlock()
	return nil
}

// describeSlot reports a slot's loaded image (fpga-describe-local-image).
func (e *ec2Service) describeSlot(instanceID string, slot int) (*SlotStatus, error) {
	_, sl, err := e.slot(instanceID, slot)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := &SlotStatus{Slot: slot, AgfiID: sl.agfi, Status: "cleared"}
	if st.AgfiID != "" {
		st.Status = "loaded"
	}
	return st, nil
}

// executeInference stands in for the user's host program running on the F1
// instance (the default host code Condor generates): it runs the batch in
// input, little-endian float32 words as EncodeBatch writes them, on the
// slot's fabric and returns the outputs. The fabric loads the weights object
// from S3 unless it already holds that very object. The input is checked
// against the loaded image before the slot's device does any work.
func (e *ec2Service) executeInference(instanceID string, slot int, weightsBucket, weightsKey string,
	batch int, input []byte) (out []float32, kernelMs float64, err error) {
	// The whole host-program run — weight load through kernel execution —
	// holds the slot, as the real per-slot host process would.
	sl, err := e.lockSlot(instanceID, slot)
	if err != nil {
		return nil, 0, err
	}
	defer sl.mu.Unlock()
	spec, err := sl.dev.Spec()
	if err != nil {
		return nil, 0, &apiError{Code: "FpgaNotProgrammed", Status: 409,
			Message: fmt.Sprintf("slot %d of %s has no image loaded", slot, instanceID)}
	}
	inBytes := 4 * spec.Input.Volume()
	if batch <= 0 || len(input)%inBytes != 0 || len(input)/inBytes != batch {
		return nil, 0, &apiError{Code: "InvalidInput", Status: 400,
			Message: fmt.Sprintf("input has %d bytes, batch %d needs %d per image", len(input), batch, inBytes)}
	}
	obj, err := e.store.get(weightsBucket, weightsKey)
	if err != nil {
		return nil, 0, err
	}
	if v := (weightsVersion{weightsBucket, weightsKey, obj.gen}); sl.weights != v {
		ws, err := condorir.ParseWeights(obj.data)
		if err != nil {
			return nil, 0, &apiError{Code: "InvalidWeightsFile", Status: 400, Message: err.Error()}
		}
		sl.weights = weightsVersion{}
		if err := sl.dev.LoadWeights(ws); err != nil {
			return nil, 0, &apiError{Code: "WeightLoadFailure", Status: 400, Message: err.Error()}
		}
		sl.weights = v
	}
	in, _ := DecodeBatch(input) // whole images, so whole words
	if sl.prog == nil {
		sl.prog = sdaccel.NewHostProgram(sl.dev)
	}
	out = make([]float32, batch*spec.OutputShape().Volume())
	if kernelMs, err = sl.prog.Run(in, out, batch); err != nil {
		return nil, 0, &apiError{Code: "KernelExecutionFailure", Status: 500, Message: err.Error()}
	}
	return out, kernelMs, nil
}

func instSnapshot(i *Instance) *Instance {
	cp := *i
	cp.fpga = nil
	return &cp
}
