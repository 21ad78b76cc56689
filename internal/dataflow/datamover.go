package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Datamover models the custom data-moving engine of the accelerator: it is
// the only element that talks to the on-board (DDR) memory, exchanging data
// with the PEs over streaming connections. It holds the spill buffers for
// partial results and fused-layer intermediates, and it accounts every byte
// moved — the weight streams too — so the traffic numbers feed the
// performance and power models. The weights themselves are the design's
// plan (Instantiate), which every compute unit reads; each unit owns its
// datamover, so scratch buffers and traffic counters are private.
type Datamover struct {
	mu      sync.Mutex
	buffers map[string][]float32 // DRAM scratch buffers (spills, fused intermediates)

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// NewDatamover returns an empty datamover.
func NewDatamover() *Datamover {
	return &Datamover{buffers: make(map[string][]float32)}
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
