package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// noOp is the op id of spans that belong to no single op (a backend batch
// serves several requests at once).
const noOp = -1

// span is one interval at a layer boundary, recorded from the benchmark's
// own files around the call into the layer. Spans of one op share its id;
// Parent names the span that caused this one.
type span struct {
	Name   string
	Parent string
	Op     int
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	N      int // work count the span carried (batch size), 0 when not meaningful
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of one traced pass in memory. A nil recorder is
// tracing switched off: add does nothing, so call sites need no branches.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

func (r *recorder) add(name, parent string, op int, start, end time.Time, n int) {
	if r == nil {
		return
	}
	s := span{Name: name, Parent: parent, Op: op, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), N: n}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far (the warm-up's), keeping the epoch.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanTotals is the roll-up of every span with one name.
type spanTotals struct {
	Count int
	Total time.Duration // Σ durations
	Self  time.Duration // Σ (duration − the part child spans cover)
	N     int           // Σ work counts
	// TotalByN is Σ duration × work count: what the span cost summed over
	// the units of work that each waited for all of it.
	TotalByN time.Duration
}

func (t spanTotals) meanMs() float64 {
	if t.Count == 0 {
		return 0
	}
	return millis(t.Total) / float64(t.Count)
}

func (t spanTotals) selfMeanMs() float64 {
	if t.Count == 0 {
		return 0
	}
	return millis(t.Self) / float64(t.Count)
}

// rollUp aggregates spans by name. A span's self time is its duration minus
// the part of its interval covered by its children — the spans of the same
// op whose Parent is its name — with overlapping children counted once.
func rollUp(spans []span) map[string]spanTotals {
	type key struct {
		op     int
		parent string
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" && s.Op != noOp {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.dur()
		t.N += s.N
		t.TotalByN += s.dur() * time.Duration(s.N)
		self := s.dur()
		if s.Op != noOp {
			self -= covered(s, children[key{s.Op, s.Name}])
		}
		t.Self += self
		out[s.Name] = t
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cursor := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < cursor {
			lo = cursor
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// writeChromeTrace writes the recorders' spans as one Chrome trace-event
// file: one process per workload, one thread lane per span name.
func writeChromeTrace(w io.Writer, recs []*recorder) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for pid, r := range recs {
		if r == nil {
			continue
		}
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid + 1,
			Args: map[string]any{"name": r.workload}})
		lanes := map[string]int{}
		for _, s := range r.snapshot() {
			tid, ok := lanes[s.Name]
			if !ok {
				tid = len(lanes) + 1
				lanes[s.Name] = tid
				events = append(events, event{Name: "thread_name", Ph: "M", PID: pid + 1, TID: tid,
					Args: map[string]any{"name": s.Name}})
			}
			dur := s.dur().Seconds() * 1e6
			args := map[string]any{"op": s.Op}
			if s.Parent != "" {
				args["parent"] = s.Parent
			}
			if s.N != 0 {
				args["n"] = s.N
			}
			events = append(events, event{Name: s.Name, Ph: "X", PID: pid + 1, TID: tid,
				Ts: s.Start.Seconds() * 1e6, Dur: &dur, Args: args})
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}
