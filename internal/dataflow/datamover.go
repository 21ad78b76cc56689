package dataflow

import "sync/atomic"

// datamover models the custom data-moving engine of the accelerator: it is
// the only element that talks to the on-board (DDR) memory, exchanging data
// with the PEs over streaming connections, and it accounts every byte one
// run moves — the input stream, the output write-back, weight re-reads,
// partial-sum spills and fused-layer hand-offs — so the traffic numbers feed
// the performance and power models. Each RunWords call owns one, started
// from the one-time configuration load Instantiate counted, so a run reports
// exactly what a freshly instantiated fabric would; a Session books the same
// bytes from the schedule instead (Session.Stats).
type datamover struct {
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// read records n bytes read from DDR.
func (d *datamover) read(n int64) { d.bytesRead.Add(n) }

// write records n bytes written to DDR.
func (d *datamover) write(n int64) { d.bytesWritten.Add(n) }

// spill records one read-modify-write round trip of a partial-sum buffer
// that does not fit on-chip (float32 words whatever the datapath).
func (d *datamover) spill(words int64) {
	d.read(4 * words)
	d.write(4 * words)
}

// DatamoverStats is a snapshot of a run's DDR traffic.
type DatamoverStats struct {
	BytesRead    int64
	BytesWritten int64
}

// stats returns the accumulated DDR traffic counters.
func (d *datamover) stats() DatamoverStats {
	return DatamoverStats{
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
	}
}
