package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Perfetto / Chrome trace_event export.
//
// The exporter merges a Recorder's spans with counter tracks into the
// JSON array form of the trace_event format, loadable in chrome://tracing
// and ui.perfetto.dev. Virtual seconds map to microseconds of trace time
// (the format's native unit). One synthetic process holds one thread per
// rank; spans become complete ("X") events on the rank's thread. Two kinds
// of counter ("C") tracks ride along:
//
//   - phase concurrency: for every span kind, the number of ranks inside a
//     span of that kind over time — the waiting that builds the collective
//     wall is directly visible as the sync track pinning at the rank count;
//   - registry totals: each Registry counter emits one terminal sample, so
//     the run's scalar metrics are attached to the same timeline.
//
// Output is deterministic: events are emitted in a fully specified sort
// order and serialized with encoding/json's stable struct encoding, so two
// identical runs export byte-identical traces (pinned by tests).

// TraceEvent is one object of the trace_event array.
type TraceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// counterTid is the synthetic thread carrying counter tracks.
const counterTid = 1 << 20

// Perfetto renders the recorder's spans (and, when reg is non-nil, its
// counter totals) as a trace_event JSON array. A nil recorder exports only
// the registry samples.
func Perfetto(rec *Recorder, reg *Registry) ([]byte, error) {
	var out []TraceEvent
	var events []Span
	if rec != nil {
		events = rec.Events()
	}

	// Process/thread metadata: name the process and every rank's thread.
	ranks := map[int]bool{}
	for _, e := range events {
		ranks[e.Rank] = true
	}
	out = append(out, TraceEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]string{"name": "parcoll-sim"},
	})
	rankList := make([]int, 0, len(ranks))
	for r := range ranks {
		rankList = append(rankList, r)
	}
	sort.Ints(rankList)
	for _, r := range rankList {
		out = append(out, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: r,
			Args: map[string]string{"name": fmt.Sprintf("rank %d", r)},
		})
	}

	// Spans, sorted (ts, tid, name, dur) for stable output.
	spans := make([]TraceEvent, 0, len(events))
	var tmax float64
	for _, e := range events {
		ev := TraceEvent{
			Name: e.Kind, Ph: "X",
			Ts: e.Start * 1e6, Dur: e.Dur() * 1e6,
			Pid: 0, Tid: e.Rank,
		}
		if e.Note != "" {
			ev.Args = map[string]string{"note": e.Note}
		}
		spans = append(spans, ev)
		if e.End > tmax {
			tmax = e.End
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Dur < b.Dur
	})
	out = append(out, spans...)

	// Phase-concurrency counter tracks, one per span kind.
	out = append(out, concurrencyTracks(events)...)

	// Registry counters: one terminal sample each, pinned at the trace end.
	if reg != nil {
		snap := reg.Snapshot()
		for _, c := range snap.Counters {
			out = append(out, TraceEvent{
				Name: c.Name, Ph: "C", Ts: tmax * 1e6, Pid: 0, Tid: counterTid,
				Args: map[string]string{"value": fmt.Sprintf("%d", c.Value)},
			})
		}
	}
	return json.Marshal(out)
}

// concurrencyTracks builds one counter track per span kind: the number of
// ranks concurrently inside a span of that kind, sampled at every span edge.
func concurrencyTracks(events []Span) []TraceEvent {
	type edge struct {
		t     float64
		delta int
	}
	byKind := map[string][]edge{}
	for _, e := range events {
		byKind[e.Kind] = append(byKind[e.Kind], edge{e.Start, +1}, edge{e.End, -1})
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)

	var out []TraceEvent
	for _, k := range kinds {
		es := byKind[k]
		sort.Slice(es, func(i, j int) bool {
			if es[i].t != es[j].t {
				return es[i].t < es[j].t
			}
			return es[i].delta < es[j].delta // close before open at the same instant
		})
		depth, last := 0, -1.0
		for i, e := range es {
			depth += e.delta
			// Collapse coincident edges into one sample per timestamp.
			if i+1 < len(es) && es[i+1].t == e.t {
				continue
			}
			if e.t == last {
				continue
			}
			last = e.t
			out = append(out, TraceEvent{
				Name: "active:" + k, Ph: "C", Ts: e.t * 1e6, Pid: 0, Tid: counterTid,
				Args: map[string]string{"value": fmt.Sprintf("%d", depth)},
			})
		}
	}
	return out
}
