package dataflow

// This file models the accelerator's DDR traffic analytically, from the
// layer schedules. The numbers mirror exactly what the functional datamover
// accounts at run time (the equivalence is asserted in tests), and feed the
// roofline analysis and the bandwidth-bound checks of the performance layer.

// DDRBytesPerImage returns the on-board memory traffic one image generates:
// the input stream read, the output write-back, and every layer's weight
// re-read, partial-sum spill and fused-layer hand-off (Schedule.DDRBytes).
func (s *Spec) DDRBytesPerImage() int64 {
	total := int64(s.Input.Volume()+s.OutputShape().Volume()) * int64(s.Bits()/8)
	for _, pe := range s.PEs {
		for i := range pe.Layers {
			total += pe.Schedule(i, s.Bits()).DDRBytes
		}
	}
	return total
}

// OnChipLoadBytes returns the one-time DDR reads performed at configuration
// time to fill the on-chip weight caches.
func (s *Spec) OnChipLoadBytes() int64 {
	var total int64
	for _, pe := range s.PEs {
		for i := range pe.Layers {
			total += pe.Schedule(i, s.Bits()).LoadBytes
		}
	}
	return total
}
