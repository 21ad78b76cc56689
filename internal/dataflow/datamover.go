package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// weightStore is the on-board weight memory of one instantiated design. It
// is written only during Instantiate, which seals it before the fabric (or
// any cloned compute unit) can execute; after the seal every read is
// lock-free, so any number of replica fabrics share one store with zero
// copies and zero contention — weights are read-only state, exactly as on
// the device, where every compute unit reads the same DDR image.
type weightStore struct {
	mu      sync.Mutex
	sealed  bool
	weights map[string][]float32 // flattened weights per layer name
	biases  map[string][]float32
}

func newWeightStore() *weightStore {
	return &weightStore{
		weights: make(map[string][]float32),
		biases:  make(map[string][]float32),
	}
}

func (s *weightStore) load(layer string, w, b []float32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		panic(fmt.Sprintf("dataflow: weight load for layer %q after the store was sealed", layer))
	}
	s.weights[layer] = w
	s.biases[layer] = b
}

func (s *weightStore) seal() {
	s.mu.Lock()
	s.sealed = true
	s.mu.Unlock()
}

// get reads a layer's streams without locking: every load happens-before
// seal, and seal happens-before any fabric execution (Instantiate returns
// the accelerator only after sealing), so concurrent readers are ordered
// after the last write.
func (s *weightStore) get(layer string) (w, b []float32, ok bool) {
	w, ok = s.weights[layer]
	return w, s.biases[layer], ok
}

// Datamover models the custom data-moving engine of the accelerator: it is
// the only element that talks to the on-board (DDR) memory, exchanging data
// with the PEs over streaming connections. It holds the network weights and
// the spill buffers for partial results and fused-layer intermediates, and
// it accounts every byte moved — the traffic numbers feed the performance
// and power models.
//
// The weight region is shared by reference among cloned compute units (see
// Clone); scratch buffers and traffic counters are private per unit, so the
// merged per-CU DDR totals equal a single fabric's totals exactly.
type Datamover struct {
	store *weightStore

	mu      sync.Mutex
	buffers map[string][]float32 // DRAM scratch buffers (spills, fused intermediates)

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// NewDatamover returns an empty datamover.
func NewDatamover() *Datamover {
	return &Datamover{
		store:   newWeightStore(),
		buffers: make(map[string][]float32),
	}
}

// Clone returns the datamover of an additional compute unit: it shares the
// sealed weight store with the receiver and owns fresh scratch buffers and
// zeroed traffic counters. The one-time on-chip configuration load stays
// accounted on the original unit, so a pool's summed DDR traffic matches
// one fabric's.
func (d *Datamover) Clone() *Datamover {
	return &Datamover{store: d.store, buffers: make(map[string][]float32)}
}

// Seal freezes the weight store: subsequent LoadWeights calls panic and
// reads stop taking the store lock. Instantiate seals before handing the
// fabric out; weights are read-only from then on, which is what makes
// compute-unit replication a pointer copy.
func (d *Datamover) Seal() { d.store.seal() }

// LoadWeights stores a layer's flattened weights in on-board memory. The
// initial host→DDR transfer is not accounted here: it happens once over PCIe
// before execution, as in the paper's host code.
func (d *Datamover) LoadWeights(layer string, w, b []float32) {
	d.store.load(layer, w, b)
}

// Weights returns the layer's weight stream, accounting the DDR read
// traffic unless the PE caches them on-chip (in which case the single
// configuration-time read was already accounted by AccountOnChipLoad).
func (d *Datamover) Weights(layer string, onChip bool) ([]float32, []float32, error) {
	w, b, ok := d.store.get(layer)
	if !ok {
		return nil, nil, fmt.Errorf("dataflow: datamover has no weights for layer %q", layer)
	}
	if !onChip {
		d.bytesRead.Add(int64(4 * (len(w) + len(b))))
	}
	return w, b, nil
}

// WeightsRef returns the layer's weight stream without accounting any DDR
// traffic: the session executors resolve the slices once (resolveLayers) and
// account each image's stream re-read separately.
func (d *Datamover) WeightsRef(layer string) ([]float32, []float32, error) {
	w, b, ok := d.store.get(layer)
	if !ok {
		return nil, nil, fmt.Errorf("dataflow: datamover has no weights for layer %q", layer)
	}
	return w, b, nil
}

// AccountOnChipLoad records the one-time DDR→BRAM weight load of a PE whose
// weights are cached on-chip, on a fabric whose 32-bit words pack lanes
// elements: a float32 word per weight, or one byte per int8 code.
func (d *Datamover) AccountOnChipLoad(layer string, lanes int) {
	w, b, _ := d.store.get(layer)
	d.bytesRead.Add(int64(4/lanes) * int64(len(w)+len(b)))
}

// WriteBuffer stores an intermediate array in DDR (fused-layer handoff or
// partial spill) and accounts the write traffic. The buffer's backing
// storage is reused across writes of the same name when capacity allows, so
// steady-state fused-layer handoffs allocate nothing.
func (d *Datamover) WriteBuffer(name string, data []float32) {
	d.mu.Lock()
	buf := d.buffers[name]
	if cap(buf) < len(data) {
		buf = make([]float32, len(data))
	}
	buf = buf[:len(data)]
	copy(buf, data)
	d.buffers[name] = buf
	d.mu.Unlock()
	d.bytesWritten.Add(int64(4 * len(data)))
}

// ReadBuffer streams an intermediate array back from DDR, accounting the
// read traffic.
func (d *Datamover) ReadBuffer(name string) ([]float32, error) {
	d.mu.Lock()
	data, ok := d.buffers[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dataflow: datamover has no buffer %q", name)
	}
	d.bytesRead.Add(int64(4 * len(data)))
	return data, nil
}

// AccountPartialSpill records one read-modify-write round trip of a
// partial-sum buffer that does not fit on-chip.
func (d *Datamover) AccountPartialSpill(words int64) {
	d.bytesRead.Add(4 * words)
	d.bytesWritten.Add(4 * words)
}

// AccountInput records the DDR read of the network input (the datamover
// streams each image from on-board memory into the first PE).
func (d *Datamover) AccountInput(words int64) { d.bytesRead.Add(4 * words) }

// AccountOutput records the DDR write of the network output.
func (d *Datamover) AccountOutput(words int64) { d.bytesWritten.Add(4 * words) }

// AccountReadBytes records a DDR read at byte granularity. The packed int8
// datapath moves one byte per activation element and must account exactly
// what the analytic Spec.DDRBytesPerImage model predicts, which the
// 4-bytes-per-word helpers above cannot express.
func (d *Datamover) AccountReadBytes(n int64) { d.bytesRead.Add(n) }

// AccountWriteBytes records a DDR write at byte granularity (see
// AccountReadBytes).
func (d *Datamover) AccountWriteBytes(n int64) { d.bytesWritten.Add(n) }

// Stats is a snapshot of DDR traffic.
type DatamoverStats struct {
	BytesRead    int64
	BytesWritten int64
}

// Stats returns the accumulated DDR traffic counters.
func (d *Datamover) Stats() DatamoverStats {
	return DatamoverStats{
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
	}
}
