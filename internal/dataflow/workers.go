package dataflow

import (
	"runtime"
	"sync"
)

// bandFunc is one band's share of a sharded loop: it processes [lo,hi) as
// band number band.
type bandFunc func(band, lo, hi int)

// bandTask is a band descriptor, handed to a helper by value.
type bandTask struct {
	fn           bandFunc
	band, lo, hi int
}

// workerPool is the band-execution pool of one PE executor: the host
// stand-in for a PE's parallel ports. The pool owns a fixed set of helper
// goroutines, sized from the PE's share of the processors (newPEWorkerPool),
// so a box with fewer than two processors per session PE gets none and every
// PE degrades to the sequential schedule; band dispatch never blocks waiting
// for a helper — a band that finds the pool busy runs inline on the caller —
// so the pool cannot deadlock regardless of how many PEs share the processor
// budget. A pool serves one dispatching goroutine (its executor), which is
// what lets the in-flight wait group live in the pool instead of being
// allocated per dispatch.
type workerPool struct {
	tasks   chan bandTask
	size    int            // helper goroutines started
	helpers sync.WaitGroup // helper goroutine lifetimes
	pending sync.WaitGroup // bands of the dispatch in flight
}

// newPEWorkerPool sizes a pool for a PE's port parallelism: the widest of
// the two port counts, clamped to the PE's share of the processors, minus
// the caller itself. Every PE executor of a session is a goroutine that
// streams concurrently with the others — the pipeline parallelism the
// processors serve first — so the share is GOMAXPROCS divided by the
// session's PEs, and a helper beyond it would only contend with another
// PE's executor. Returns nil (a valid, sequential pool) when no helper is
// useful.
func newPEWorkerPool(par, sessionPEs int) *workerPool {
	share := runtime.GOMAXPROCS(0) / max(sessionPEs, 1)
	return newWorkerPool(min(par, share) - 1)
}

// newWorkerPool starts helpers goroutines serving band tasks. A pool with no
// helpers is represented as nil; all methods are nil-safe and run the work
// inline.
func newWorkerPool(helpers int) *workerPool {
	if helpers <= 0 {
		return nil
	}
	p := &workerPool{tasks: make(chan bandTask), size: helpers}
	p.helpers.Add(helpers)
	for i := 0; i < helpers; i++ {
		go func() {
			defer p.helpers.Done()
			for t := range p.tasks {
				t.fn(t.band, t.lo, t.hi)
				p.pending.Done()
			}
		}()
	}
	return p
}

// close stops the helper goroutines. Safe on a nil pool.
func (p *workerPool) close() {
	if p == nil {
		return
	}
	close(p.tasks)
	p.helpers.Wait()
}

// bands splits [0,n) into at most par contiguous bands and runs
// fn(band, lo, hi) for each, returning after every band has finished. Band 0
// always runs on the caller; the rest are offered to the helpers and fall
// back to inline execution when every helper is busy. Bands are disjoint, so
// fn may write shared state as long as writes stay inside [lo,hi). The
// dispatch itself allocates nothing: executors pass band bodies bound once
// per session, and state the bodies read is written before the call — the
// task hand-off orders it before every helper's read.
func (p *workerPool) bands(n, par int, fn bandFunc) {
	if par > n {
		par = n
	}
	if p == nil || par <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	size := (n + par - 1) / par
	band := 1
	for lo := size; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		p.pending.Add(1)
		select {
		case p.tasks <- bandTask{fn: fn, band: band, lo: lo, hi: hi}:
		default:
			fn(band, lo, hi)
			p.pending.Done()
		}
		band++
	}
	fn(0, 0, size)
	p.pending.Wait()
}
