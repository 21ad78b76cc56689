package dataflow

import (
	"fmt"
	"sync"

	"condor/internal/obs"
	"condor/internal/tensor"
)

// CUPool replicates an instantiated fabric into N compute units that execute
// batch shards concurrently — the host realisation of the paper's
// compute-unit replication knob (multiple kernel instances of one design on
// one device, all reading the same weight image). Unit 0 is the original
// accelerator; the replicas share its sealed weight store by reference and
// own private scratch and counters, so a pool-run's merged stats equal a
// single fabric's run over the same batch exactly (MaxOccupancy aside, which
// is taken per unit and maxed).
type CUPool struct {
	cus []*Accelerator

	// Resident streaming sessions, one per unit, opened lazily by the first
	// RunBatch and held until Close — that is what lets a serving batcher
	// feed the pool as a continuous stream instead of paying a fabric
	// spawn/join per batch.
	mu   sync.Mutex
	sess []*Session
}

// NewCUPool builds a pool of n compute units around an instantiated fabric.
// n < 1 is treated as 1; a pool of 1 is the original accelerator with zero
// overhead. With n > 1 every unit's trace tracks are namespaced "cu0/",
// "cu1/", … so a shared tracer keeps the units' timelines apart.
func NewCUPool(a *Accelerator, n int) *CUPool {
	if n < 1 {
		n = 1
	}
	p := &CUPool{cus: make([]*Accelerator, n)}
	p.cus[0] = a
	for i := 1; i < n; i++ {
		p.cus[i] = a.Clone()
	}
	if n > 1 {
		for i, cu := range p.cus {
			cu.trackPrefix = fmt.Sprintf("cu%d/", i)
		}
	}
	return p
}

// Size returns the number of compute units in the pool.
func (p *CUPool) Size() int { return len(p.cus) }

// Spec returns the replicated design's spec (shared by every unit).
func (p *CUPool) Spec() *Spec { return p.cus[0].Spec }

// CU returns the i-th compute unit, for callers that schedule units
// individually (the sdaccel runtime drives one fabric per OpenCL compute
// unit rather than splitting batches itself).
func (p *CUPool) CU(i int) *Accelerator { return p.cus[i] }

// SetTracer attaches a tracer to every compute unit.
func (p *CUPool) SetTracer(t obs.Tracer) {
	for _, cu := range p.cus {
		cu.SetTracer(t)
	}
}

// session returns (opening on first use) the i-th unit's resident session.
func (p *CUPool) session(i int) *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sess == nil {
		p.sess = make([]*Session, len(p.cus))
	}
	if p.sess[i] == nil {
		p.sess[i] = p.cus[i].OpenSession()
	}
	return p.sess[i]
}

// RunBatch shards the batch contiguously across the pool's resident
// streaming sessions: every compute unit's fabric stays up between calls,
// so consecutive batches stream back-to-back through the layer pipelines
// with no spawn/join or fill/drain per batch. Outputs come back in input
// order; stats are the merge of the per-unit session-cumulative stats (see
// Session.RunBatch): counters sum, per-PE entries merge index-wise, stream
// occupancy high-water marks max. The caller owns Close.
func (p *CUPool) RunBatch(batch []*tensor.Tensor) ([]*tensor.Tensor, *RunStats, error) {
	if len(p.cus) == 1 || len(batch) <= 1 {
		return p.session(0).RunBatch(batch)
	}
	n := len(p.cus)
	per := (len(batch) + n - 1) / n
	outs := make([]*tensor.Tensor, len(batch))
	stats := make([]*RunStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	shards := 0
	for i := 0; i < n; i++ {
		lo := i * per
		if lo >= len(batch) {
			break
		}
		hi := lo + per
		if hi > len(batch) {
			hi = len(batch)
		}
		shards++
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			shardOuts, st, err := p.session(i).RunBatch(batch[lo:hi])
			if err != nil {
				errs[i] = fmt.Errorf("cu%d: %w", i, err)
				return
			}
			copy(outs[lo:hi], shardOuts)
			stats[i] = st
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	merged := stats[0]
	for _, st := range stats[1:shards] {
		merged.Merge(st)
	}
	return outs, merged, nil
}

// Stats merges the session-cumulative stats of every resident session the
// pool has opened (see Session.Stats). Meaningful between RunBatch calls,
// when no images are in flight; a pool with no open sessions reports zero.
func (p *CUPool) Stats() *RunStats {
	p.mu.Lock()
	sess := append([]*Session(nil), p.sess...)
	p.mu.Unlock()
	var merged *RunStats
	for _, s := range sess {
		if s == nil {
			continue
		}
		st := s.Stats()
		if merged == nil {
			merged = st
		} else {
			merged.Merge(st)
		}
	}
	if merged == nil {
		merged = &RunStats{}
	}
	return merged
}

// Close tears down every resident session opened by RunBatch, joining all
// fabric goroutines, and returns the first failure. The pool may be used
// again after Close — the next RunBatch opens fresh sessions.
func (p *CUPool) Close() error {
	p.mu.Lock()
	sess := p.sess
	p.sess = nil
	p.mu.Unlock()
	var first error
	for _, s := range sess {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Merge folds another run's stats into s: image and traffic counters sum,
// per-PE entries merge index-wise, per-stream push/pop/burst totals sum and
// occupancy high-water marks max. Merging the per-unit stats of a pool run
// yields exactly the stats of one fabric running the whole batch (occupancy
// aside, which depends on scheduling).
func (s *RunStats) Merge(o *RunStats) {
	s.Images += o.Images
	for i := range s.PEs {
		if i >= len(o.PEs) {
			break
		}
		a, b := &s.PEs[i], &o.PEs[i]
		a.Images += b.Images
		a.Cycles += b.Cycles
		a.MACs += b.MACs
		a.WindowsRead += b.WindowsRead
		a.ElemsIn += b.ElemsIn
		a.ElemsOut += b.ElemsOut
		a.SpilledPartial += b.SpilledPartial
		if b.MaxRequantScale > a.MaxRequantScale {
			a.MaxRequantScale = b.MaxRequantScale
		}
		if b.MaxWinogradMag > a.MaxWinogradMag {
			a.MaxWinogradMag = b.MaxWinogradMag
		}
	}
	if o.InputScale > s.InputScale {
		s.InputScale = o.InputScale
	}
	s.DRAM.BytesRead += o.DRAM.BytesRead
	s.DRAM.BytesWritten += o.DRAM.BytesWritten
	for i := range s.Streams {
		if i >= len(o.Streams) {
			break
		}
		a, b := &s.Streams[i], &o.Streams[i]
		a.Pushes += b.Pushes
		a.Pops += b.Pops
		a.PushBursts += b.PushBursts
		a.PopBursts += b.PopBursts
		a.LanePushes += b.LanePushes
		a.LanePops += b.LanePops
		a.HeaderPushes += b.HeaderPushes
		a.HeaderPops += b.HeaderPops
		if b.MaxOccupancy > a.MaxOccupancy {
			a.MaxOccupancy = b.MaxOccupancy
		}
		if b.EpochMaxOccupancy > a.EpochMaxOccupancy {
			a.EpochMaxOccupancy = b.EpochMaxOccupancy
		}
	}
}
