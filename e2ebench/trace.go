package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer. Times are nanoseconds since the
// tracer's origin; parent indexes the enclosing span (-1 for a root) and
// lane is 0 for the coordinating goroutine, 1+w for worker or client w.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	Lane   int
}

// tracer keeps every span in memory; write exports them once the run is
// over. Workers record concurrently, so the slice sits behind a mutex — the
// recorded calls are tens of microseconds or longer, the lock is not.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, lane int) int {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Lane: lane})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total int64 // summed durations, ns
	Self  int64 // summed durations minus the part covered by children, ns
}

// aggregate folds the spans under root (inclusive) into per-name totals.
// Self time is a span's duration minus the union of its children's
// intervals, so concurrent children on several lanes are not counted twice.
func (t *tracer) aggregate(root int) map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i := root + 1; i < len(t.spans); i++ {
		children[t.spans[i].Parent] = append(children[t.spans[i].Parent], i)
	}
	out := map[string]*layerTime{}
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id]
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered(t.spans, children[id], s.Start, s.End)
		for _, c := range children[id] {
			walk(c)
		}
	}
	walk(root)
	return out
}

// covered returns how much of [lo, hi) the given spans cover together.
func covered(spans []span, ids []int, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			sum += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return sum + curB - curA
}

// traceEvent is one Chrome trace_event "complete" entry (microseconds),
// loadable in chrome://tracing or ui.perfetto.dev.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]int `json:"args"`
}

// write exports every recorded span as Chrome trace_event JSON, with the
// span's index and its parent's in args.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		ev[i] = traceEvent{
			Name: s.Name, Ph: "X", Tid: s.Lane,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": ev})
}
