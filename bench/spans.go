package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// A span is one timed interval of host time recorded by the harness around
// a call into a layer: name, start, end, the span that caused it and the
// workload it belongs to. Spans live in memory until the run ends.
type span struct {
	ID, Parent int // Parent 0 = root
	Name       string
	Start, End time.Duration // since process start
}

// tracer records spans. A nil *tracer records nothing, so the untraced pass
// and the traced pass share their call sites; the engine runs one rank at a
// time but on different goroutines, hence the lock.
type tracer struct {
	mu       sync.Mutex
	workload string
	spans    []span
}

// spanRef closes the span it was returned for.
type spanRef struct {
	t  *tracer
	id int
}

func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Name: name, Start: time.Since(processStart)})
	return spanRef{t, id}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = time.Since(processStart)
	s.t.mu.Unlock()
}

// dur is the host time a closed span covered.
func (s spanRef) dur() time.Duration {
	if s.t == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp := s.t.spans[s.id-1]
	return sp.End - sp.Start
}

// selfTimes sums, per span name, the total duration and the self time: a
// span's duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() (names []string, total, self map[string]time.Duration, count map[string]int) {
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - child[s.ID]
		count[s.Name]++
	}
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	return names, total, self, count
}

// chromeJSON renders the spans as a Chrome trace_event array: one complete
// ("X") event per span on a single track, so nesting shows as stacking;
// each event carries its id, its parent's id and the workload's id.
func (t *tracer) chromeJSON() ([]byte, error) {
	evs := []obs.TraceEvent{{Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]string{"name": "bench " + t.workload}}}
	for _, s := range t.spans {
		evs = append(evs, obs.TraceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]string{"id": strconv.Itoa(s.ID), "parent": strconv.Itoa(s.Parent), "workload": t.workload},
		})
	}
	return json.MarshalIndent(evs, "", " ")
}
