package obs

import (
	"strings"
	"testing"
)

func TestAddAndSummaries(t *testing.T) {
	r := NewRecorder()
	r.Add(0, "sync", 0, 1, "")
	r.Add(0, "io", 1, 3, "dump 0")
	r.Add(1, "sync", 0.5, 2, "")
	byKind := r.ByKind()
	if byKind["sync"] != 2.5 || byKind["io"] != 2 {
		t.Errorf("ByKind = %v", byKind)
	}
}

func TestBackwardsSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder().Add(0, "x", 2, 1, "")
}

func TestGantt(t *testing.T) {
	r := NewRecorder()
	r.Add(0, "sync", 0, 5, "")
	r.Add(0, "io", 5, 10, "")
	r.Add(1, "io", 0, 10, "")
	g := r.Gantt(10)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt rows = %d", len(lines))
	}
	if !strings.Contains(lines[0], "s") || !strings.Contains(lines[0], "i") {
		t.Errorf("rank 0 row %q missing span letters", lines[0])
	}
	if strings.Count(lines[1], "i") != 10 {
		t.Errorf("rank 1 row %q should be all io", lines[1])
	}
	if NewRecorder().Gantt(10) != "" {
		t.Error("empty recorder should render nothing")
	}
	// Named kinds limit the timeline: only rank 0's sync span remains.
	if g := r.Gantt(10, "sync"); strings.Count(g, "\n") != 1 || strings.Contains(g, "i") {
		t.Errorf("sync-only gantt = %q", g)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	r := NewRecorder()
	r.Add(0, "sync", 0, 1, "")
	r.Add(1, "io", 1, 2, "keep")
	ev := r.Events()
	ev[0] = Span{Rank: 99, Kind: "corrupt", Start: -1, End: -1, Note: "x"}
	ev = append(ev[:1], Span{Rank: 98, Kind: "worse"})
	_ = ev
	got := r.Events()
	if got[0] != (Span{Rank: 0, Kind: "sync", Start: 0, End: 1}) ||
		got[1] != (Span{Rank: 1, Kind: "io", Start: 1, End: 2, Note: "keep"}) {
		t.Fatalf("mutating Events() result corrupted the recorder: %+v", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	// EventsShared exposes the backing array by contract.
	if sh := r.EventsShared(); len(sh) != 2 || sh[0].Kind != "sync" {
		t.Fatalf("EventsShared = %+v", sh)
	}
}
