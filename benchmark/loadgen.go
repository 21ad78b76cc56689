package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one op. Every op attempted lands in exactly one class.
type outcome int

const (
	opUnsettled outcome = iota // never classified: the zero value, so a dropped record shows
	opOK                       // correct output, in time
	opWrong                    // answered, but the output failed the oracle
	opLate                     // hit the client's deadline
	opRefused                  // typed refusal: 429 or a shed 503
	opError                    // anything else
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"unsettled", "ok", "wrong", "late", "refused", "error"}

// opRecord is one op as the generator saw it, in time since the phase began.
// Latency runs from Due, not Sent: a request that had to wait for a free
// connection has been waiting since it was due, and that wait counts.
type opRecord struct {
	Due, Sent, Done time.Duration
	Result          outcome
}

func (r opRecord) latency() time.Duration  { return r.Done - r.Due }
func (r opRecord) lateness() time.Duration { return r.Sent - r.Due }

// poissonSchedule returns the due times of a Poisson arrival process of the
// given rate over dur, conditioned on its expected count: round(rate·dur)
// arrivals placed uniformly at random, in order. Conditioning keeps the
// offered load identical across seeds, so goodput does not carry the √N
// noise of the arrival count; the spacing is still exponential-like.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	n := int(rate*dur.Seconds() + 0.5)
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// runOpenLoop sends op i at due[i] regardless of how fast earlier ops were
// answered, over a fixed pool of conns senders (one keep-alive connection
// each). When every sender is busy the next op waits, and is still timed
// from its due time. It returns once every op has settled.
func runOpenLoop(ctx context.Context, due []time.Duration, conns int, do func(ctx context.Context, i int) outcome) []opRecord {
	recs := make([]opRecord, len(due))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
					}
				}
				rec := opRecord{Due: due[i], Sent: time.Since(start)}
				if ctx.Err() != nil {
					rec.Result = opError
				} else {
					rec.Result = do(ctx, i)
				}
				rec.Done = time.Since(start)
				recs[i] = rec
			}
		}()
	}
	wg.Wait()
	return recs
}

// runClosedLoop has one caller issue op after op for dur: the next op starts
// only when the previous one returned. between, when set, runs after each op
// outside its timing.
func runClosedLoop(ctx context.Context, dur time.Duration, do func(ctx context.Context, i int) outcome, between func(i int) error) ([]opRecord, error) {
	var recs []opRecord
	start := time.Now()
	for i := 0; time.Since(start) < dur && ctx.Err() == nil; i++ {
		rec := opRecord{Due: time.Since(start)}
		rec.Sent = rec.Due
		rec.Result = do(ctx, i)
		rec.Done = time.Since(start)
		recs = append(recs, rec)
		if between != nil {
			if err := between(i); err != nil {
				return recs, err
			}
		}
	}
	return recs, ctx.Err()
}
