package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("x.calls")
	c.Inc()
	c.Add(4)
	if got := r.Counter("x.calls").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("x.depth")
	g.Set(3)
	g.Set(1)
	if g.Value() != 1 || g.Max() != 3 {
		t.Fatalf("gauge = (%g, max %g), want (1, 3)", g.Value(), g.Max())
	}
	g.SetMax(2)
	if g.Value() != 1 || g.Max() != 3 {
		t.Fatalf("SetMax below max must not move the gauge: (%g, max %g)", g.Value(), g.Max())
	}
	h := r.Histogram("x.secs", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 60.5 {
		t.Fatalf("histogram count/sum = %d/%g", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	hp := snap.Histograms[0]
	want := []uint64{1, 2, 1}
	for i, n := range want {
		if hp.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hp.Counts[i], n, hp.Counts)
		}
	}
	if hp.Min != 0.5 || hp.Max != 50 {
		t.Fatalf("min/max = %g/%g", hp.Min, hp.Max)
	}
}

func TestSnapshotSortedAndEqual(t *testing.T) {
	build := func() Snapshot {
		r := New()
		r.Counter("b").Add(2)
		r.Counter("a").Inc()
		r.Gauge("z").Set(1)
		r.Histogram("m", nil).Observe(0.01)
		return r.Snapshot()
	}
	s1, s2 := build(), build()
	if s1.Counters[0].Name != "a" || s1.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %+v", s1.Counters)
	}
	if !s1.Equal(s2) {
		t.Fatal("identical registries must snapshot Equal")
	}
	j1, err1 := s1.JSON()
	j2, err2 := s2.JSON()
	if err1 != nil || err2 != nil || !bytes.Equal(j1, j2) {
		t.Fatal("snapshot JSON must be byte-identical across identical runs")
	}
	s3 := build()
	s3.Counters[0].Value++
	if s1.Equal(s3) {
		t.Fatal("differing snapshots must not compare Equal")
	}
}

func buildTrace() *Recorder {
	rec := NewRecorder()
	rec.Add(0, "sync", 0, 1, "round 0")
	rec.Add(1, "sync", 0, 1.5, "")
	rec.Add(0, "io", 1.5, 3, "")
	rec.Add(1, "exchange", 1.5, 2, "")
	return rec
}

func TestPerfettoShapeAndDeterminism(t *testing.T) {
	reg := New()
	reg.Counter("sim.sends").Add(7)
	b1, err := Perfetto(buildTrace(), reg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Perfetto(buildTrace(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("Perfetto export must be byte-identical for identical inputs")
	}
	var evs []map[string]any
	if err := json.Unmarshal(b1, &evs); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	var spans, counters, meta int
	for _, e := range evs {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event missing name/ph: %v", e)
		}
		switch ph {
		case "X":
			spans++
		case "C":
			counters++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if spans != 4 {
		t.Fatalf("spans = %d, want 4", spans)
	}
	if counters == 0 || meta == 0 {
		t.Fatalf("want counter and metadata events, got %d/%d", counters, meta)
	}
}

func TestCriticalPathBackwardWalk(t *testing.T) {
	// Rank 1's io span [2,5] ends last; before it, rank 1 sync [1,2.5]
	// overlaps; before that, rank 0 sync [0,1.2].
	rec := NewRecorder()
	rec.Add(0, "sync", 0, 1.2, "")
	rec.Add(1, "sync", 1, 2.5, "")
	rec.Add(1, "io", 2, 5, "")
	rep := CriticalPath(rec.Events())
	if rep.Span != 5 {
		t.Fatalf("span = %g, want 5", rep.Span)
	}
	if rep.BoundingRank != 1 || rep.BoundingKind != "io" {
		t.Fatalf("bounding = rank %d %q, want rank 1 io", rep.BoundingRank, rep.BoundingKind)
	}
	// Path must be chronological and cover [0, 5] without overlap.
	var tot float64
	for i, s := range rep.Steps {
		if i > 0 && s.Start != rep.Steps[i-1].End {
			t.Fatalf("path not contiguous at step %d: %+v", i, rep.Steps)
		}
		tot += s.Dur()
	}
	if tot != 5 {
		t.Fatalf("path durations sum to %g, want 5", tot)
	}
}

func TestCriticalPathIdleGap(t *testing.T) {
	rec := NewRecorder()
	rec.Add(0, "sync", 0, 1, "")
	rec.Add(0, "io", 2, 3, "")
	rep := CriticalPath(rec.Events())
	var idle float64
	for _, s := range rep.Steps {
		if s.Rank == -1 {
			idle += s.Dur()
		}
	}
	if idle != 1 {
		t.Fatalf("idle time = %g, want 1 (%+v)", idle, rep.Steps)
	}
	if rep.BoundingRank != 0 {
		t.Fatalf("bounding must skip idle: %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("report must render")
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	rep := CriticalPath(nil)
	if len(rep.Steps) != 0 || rep.Span != 0 {
		t.Fatalf("empty input must yield zero report: %+v", rep)
	}
}
