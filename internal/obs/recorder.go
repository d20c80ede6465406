package obs

// The span recorder: per-rank virtual-time event timelines, the
// instrumentation style behind the paper's Section 2 dissection of
// collective I/O. Experiments record operations as spans; the recorder sums
// them per kind and renders a per-rank Gantt timeline. Like the Registry, a
// single Recorder is shared by the ranks of one run without locking.

import (
	"fmt"
	"slices"
	"strings"
)

// Span is one completed span on one rank.
type Span struct {
	Rank  int     `json:"rank"`
	Kind  string  `json:"kind"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Note  string  `json:"note,omitempty"`
}

// Dur returns the span's duration.
func (e Span) Dur() float64 { return e.End - e.Start }

// Recorder accumulates events.
type Recorder struct {
	events []Span
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add records a completed span.
func (r *Recorder) Add(rank int, kind string, start, end float64, note string) {
	if end < start {
		panic(fmt.Sprintf("obs: span %q on rank %d ends before it starts", kind, rank))
	}
	r.events = append(r.events, Span{Rank: rank, Kind: kind, Start: start, End: end, Note: note})
}

// Events returns a copy of the recorded events in insertion order. Mutating
// the returned slice cannot corrupt the recorder; callers on a hot path that
// promise not to mutate or retain the slice can use EventsShared.
func (r *Recorder) Events() []Span { return append([]Span(nil), r.events...) }

// EventsShared returns the recorder's backing slice without copying. The
// caller must treat it as read-only and must not retain it across Add calls
// (an append may reallocate or, worse, alias new events into a stale copy).
func (r *Recorder) EventsShared() []Span { return r.events }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// ByKind sums durations per kind across all ranks.
func (r *Recorder) ByKind() map[string]float64 {
	out := make(map[string]float64)
	for _, e := range r.events {
		out[e.Kind] += e.Dur()
	}
	return out
}

// Gantt renders a coarse per-rank timeline: one row per rank, one column
// per time bucket, the densest span kind's first letter in each cell.
// Width is the number of buckets; kinds, when given, limits the timeline to
// spans of those kinds.
func (r *Recorder) Gantt(width int, kinds ...string) string {
	events := r.events
	if len(kinds) > 0 {
		events = nil
		for _, e := range r.events {
			if slices.Contains(kinds, e.Kind) {
				events = append(events, e)
			}
		}
	}
	if len(events) == 0 || width <= 0 {
		return ""
	}
	var tmax float64
	maxRank := 0
	for _, e := range events {
		if e.End > tmax {
			tmax = e.End
		}
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
	}
	if tmax == 0 {
		return ""
	}
	rows := make([][]map[string]float64, maxRank+1)
	for i := range rows {
		rows[i] = make([]map[string]float64, width)
	}
	bucket := tmax / float64(width)
	for _, e := range events {
		lo := int(e.Start / bucket)
		hi := int(e.End / bucket)
		for c := lo; c <= hi && c < width; c++ {
			cellLo := float64(c) * bucket
			cellHi := cellLo + bucket
			overlap := min(e.End, cellHi) - max(e.Start, cellLo)
			if overlap <= 0 {
				continue
			}
			if rows[e.Rank][c] == nil {
				rows[e.Rank][c] = make(map[string]float64)
			}
			rows[e.Rank][c][e.Kind] += overlap
		}
	}
	var b strings.Builder
	for rank, row := range rows {
		fmt.Fprintf(&b, "%4d |", rank)
		for _, cell := range row {
			best, bestV := ' ', 0.0
			for k, v := range cell {
				if v > bestV || (v == bestV && best != ' ' && k[0] < byte(best)) {
					best, bestV = rune(k[0]), v
				}
			}
			b.WriteRune(best)
		}
		b.WriteString("|\n")
	}
	return b.String()
}
