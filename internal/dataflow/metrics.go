package dataflow

import "condor/internal/obs"

// Publish records the batch's modeled counters into reg under the
// condor_fabric_* and condor_fifo_* metric families: images executed, per-PE
// cycles/MACs/spills, DDR traffic by direction, and per-stream FIFO words. Counters accumulate across calls, so one
// registry can absorb many batches; call with a fresh registry for a
// single-run snapshot.
func (s *RunStats) Publish(reg *obs.Registry) {
	reg.Counter("condor_fabric_images_total",
		"Images executed by the dataflow fabric.").Add(int64(s.Images))
	for i := range s.PEs {
		pe := &s.PEs[i]
		l := obs.L("pe", pe.ID)
		reg.Counter("condor_fabric_pe_cycles_total",
			"Modeled busy cycles per processing element.", l).Add(pe.Cycles)
		reg.Counter("condor_fabric_pe_macs_total",
			"MAC operations per processing element.", l).Add(pe.MACs)
		reg.Counter("condor_fabric_pe_windows_total",
			"Stencil windows read per processing element.", l).Add(pe.WindowsRead)
		reg.Counter("condor_fabric_pe_spilled_words_total",
			"Partial-sum words exchanged with the datamover per PE.", l).Add(pe.SpilledPartial)
	}
	reg.Counter("condor_fabric_ddr_bytes_total",
		"DDR bytes moved by the datamover.", obs.L("dir", "read")).Add(s.DRAM.BytesRead)
	reg.Counter("condor_fabric_ddr_bytes_total",
		"DDR bytes moved by the datamover.", obs.L("dir", "write")).Add(s.DRAM.BytesWritten)
	for _, st := range s.Streams {
		l := obs.L("stream", st.Name)
		reg.Counter("condor_fifo_words_total",
			"Words moved through inter-PE streaming FIFOs.",
			l, obs.L("op", "push")).Add(st.Pushes)
		reg.Counter("condor_fifo_words_total",
			"Words moved through inter-PE streaming FIFOs.",
			l, obs.L("op", "pop")).Add(st.Pops)
	}
}
