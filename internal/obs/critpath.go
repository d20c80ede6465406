package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Critical-path analysis over the span graph of one collective call.
//
// The collective finishes when its last span ends; walking backward from
// that instant through the spans that were still running reconstructs the
// chain of work that bounded completion — the paper's question "where does
// the time go?" answered per rank and phase instead of in aggregate. The
// walk is greedy and deterministic: at time t it picks the span covering t
// with the latest start (the tightest predecessor), breaking ties by lowest
// rank then kind; a gap with no covering span is attributed to idle time and
// the walk jumps to the latest span end below it.

// Step is one segment of the critical path. Rank is -1 for idle gaps.
type Step struct {
	Rank  int     `json:"rank"`
	Kind  string  `json:"kind"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Dur returns the step's duration.
func (s Step) Dur() float64 { return s.End - s.Start }

// Contrib aggregates one (rank, kind) pair's share of the critical path.
type Contrib struct {
	Rank    int     `json:"rank"`
	Kind    string  `json:"kind"`
	Seconds float64 `json:"seconds"`
}

// Report is the result of a critical-path analysis.
type Report struct {
	// Steps is the path in chronological order (earliest first).
	Steps []Step `json:"steps"`
	// Span is the analyzed window: last span end minus first span start.
	Span float64 `json:"span"`
	// Contribs is each (rank, kind)'s time on the path, descending.
	Contribs []Contrib `json:"contribs"`
	// BoundingRank and BoundingKind name the largest contributor — where
	// the next optimization PR should look first.
	BoundingRank int    `json:"bounding_rank"`
	BoundingKind string `json:"bounding_kind"`
}

// CriticalPath analyzes the given spans (typically Recorder.Events()
// of one collective call). An empty input yields a zero Report.
func CriticalPath(events []Span) Report {
	if len(events) == 0 {
		return Report{BoundingRank: -1}
	}
	tEnd, tStart := events[0].End, events[0].Start
	for _, e := range events {
		if e.End > tEnd {
			tEnd = e.End
		}
		if e.Start < tStart {
			tStart = e.Start
		}
	}

	var steps []Step // built back-to-front
	t := tEnd
	for t > tStart {
		// Candidate: span covering t with the latest start; ties to the
		// lowest rank, then lexicographically smallest kind.
		best := -1
		for i, e := range events {
			if e.Start >= t || e.End < t || e.Dur() == 0 {
				continue
			}
			if best < 0 ||
				e.Start > events[best].Start ||
				(e.Start == events[best].Start && (e.Rank < events[best].Rank ||
					(e.Rank == events[best].Rank && e.Kind < events[best].Kind))) {
				best = i
			}
		}
		if best >= 0 {
			e := events[best]
			steps = append(steps, Step{Rank: e.Rank, Kind: e.Kind, Start: e.Start, End: t})
			t = e.Start
			continue
		}
		// Idle gap: no span covers t. Jump to the latest end below t.
		prev := tStart
		for _, e := range events {
			if e.End < t && e.End > prev {
				prev = e.End
			}
		}
		steps = append(steps, Step{Rank: -1, Kind: "idle", Start: prev, End: t})
		t = prev
	}

	// Reverse into chronological order.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}

	rep := Report{Steps: steps, Span: tEnd - tStart}
	type rk struct {
		rank int
		kind string
	}
	agg := map[rk]float64{}
	for _, s := range steps {
		agg[rk{s.Rank, s.Kind}] += s.Dur()
	}
	for k, v := range agg {
		rep.Contribs = append(rep.Contribs, Contrib{Rank: k.rank, Kind: k.kind, Seconds: v})
	}
	sort.Slice(rep.Contribs, func(i, j int) bool {
		a, b := rep.Contribs[i], rep.Contribs[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Kind < b.Kind
	})
	rep.BoundingRank, rep.BoundingKind = -1, "idle"
	for _, c := range rep.Contribs {
		if c.Rank >= 0 { // the bounding phase is real work, not an idle gap
			rep.BoundingRank, rep.BoundingKind = c.Rank, c.Kind
			break
		}
	}
	if rep.BoundingRank < 0 && len(rep.Contribs) > 0 {
		rep.BoundingRank, rep.BoundingKind = rep.Contribs[0].Rank, rep.Contribs[0].Kind
	}
	return rep
}

// String renders the report for terminal output: the bounding rank/phase,
// then the top contributors.
func (r Report) String() string {
	if len(r.Steps) == 0 {
		return "critical path: no spans recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %.6fs across %d steps; bounded by rank %d phase %q\n",
		r.Span, len(r.Steps), r.BoundingRank, r.BoundingKind)
	n := len(r.Contribs)
	if n > 8 {
		n = 8
	}
	for _, c := range r.Contribs[:n] {
		who := fmt.Sprintf("rank %d %s", c.Rank, c.Kind)
		if c.Rank < 0 {
			who = "idle"
		}
		share := 0.0
		if r.Span > 0 {
			share = c.Seconds / r.Span * 100
		}
		fmt.Fprintf(&b, "  %-24s %.6fs (%4.1f%%)\n", who, c.Seconds, share)
	}
	return b.String()
}
