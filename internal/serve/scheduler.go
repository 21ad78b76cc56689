package serve

import "sync"

// backendState tracks one pool member's dispatch state and accounting.
type backendState struct {
	backend Backend

	// The fields below are guarded by the owning scheduler's mutex.
	busy     bool
	busyMs   float64 // accumulated modeled kernel milliseconds
	batches  uint64
	images   uint64
	failures uint64
}

// scheduler hands each batch to the least-loaded free backend. Load is
// the backend's accumulated modeled kernel time, so a pool mixing fast
// local boards with slower (or busier) F1 slots converges towards equal
// device-time shares rather than equal batch counts.
type scheduler struct {
	mu       sync.Mutex
	free     *sync.Cond
	backends []*backendState
}

func newScheduler(pool []Backend) *scheduler {
	sc := &scheduler{}
	sc.free = sync.NewCond(&sc.mu)
	for _, b := range pool {
		sc.backends = append(sc.backends, &backendState{backend: b})
	}
	return sc
}

// leastLoadedFree returns the free backend with the least accumulated load,
// or nil while the whole pool is busy. The caller holds sc.mu.
func (sc *scheduler) leastLoadedFree() *backendState {
	var best *backendState
	for _, st := range sc.backends {
		if !st.busy && (best == nil || st.busyMs < best.busyMs) {
			best = st
		}
	}
	return best
}

// waitFree blocks until some backend is free, without claiming it: the
// dispatcher leaves requests in the admission queue while the pool is busy.
func (sc *scheduler) waitFree() {
	sc.mu.Lock()
	for sc.leastLoadedFree() == nil {
		sc.free.Wait()
	}
	sc.mu.Unlock()
}

// acquire blocks until a backend is free and claims the least-loaded one.
func (sc *scheduler) acquire() *backendState {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		if best := sc.leastLoadedFree(); best != nil {
			best.busy = true
			return best
		}
		sc.free.Wait()
	}
}

// release returns a backend to the pool and folds the batch's modeled
// kernel time into its load.
func (sc *scheduler) release(st *backendState, kernelMs float64, images int, failed bool) {
	sc.mu.Lock()
	st.busy = false
	st.busyMs += kernelMs
	st.batches++
	st.images += uint64(images)
	if failed {
		st.failures++
	}
	sc.mu.Unlock()
	sc.free.Signal()
}

// snapshot copies the per-backend accounting for Stats.
func (sc *scheduler) snapshot() []BackendStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]BackendStats, len(sc.backends))
	for i, st := range sc.backends {
		out[i] = BackendStats{
			ID:       st.backend.ID(),
			Busy:     st.busy,
			BusyMs:   st.busyMs,
			Batches:  st.batches,
			Images:   st.images,
			Failures: st.failures,
		}
	}
	return out
}
