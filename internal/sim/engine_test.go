package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAdvanceAndNow(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	end := e.Run(1, func(p *Proc) {
		if p.Now() != 0 {
			t.Errorf("initial Now = %g, want 0", p.Now())
		}
		p.Advance(1.5)
		p.Advance(0.25)
		if p.Now() != 1.75 {
			t.Errorf("Now = %g, want 1.75", p.Now())
		}
		p.AdvanceTo(1.0) // no-op, backwards
		if p.Now() != 1.75 {
			t.Errorf("AdvanceTo moved clock backwards: %g", p.Now())
		}
		p.AdvanceTo(2.0)
		if p.Now() != 2.0 {
			t.Errorf("AdvanceTo(2) -> %g", p.Now())
		}
	})
	if end != 2.0 {
		t.Errorf("Run returned %g, want 2.0", end)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from negative Advance")
		}
	}()
	NewEngine(Config{}).Run(1, func(p *Proc) { p.Advance(-1) })
}

func TestSendRecvBasic(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Run(2, func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Advance(1.0)
			p.Send(1, 7, "hello", p.Now()+0.5)
		case 1:
			m := p.Recv(0, 7)
			if m.Payload.(string) != "hello" {
				t.Errorf("payload = %v", m.Payload)
			}
			if m.Src != 0 || m.Tag != 7 {
				t.Errorf("src/tag = %d/%d", m.Src, m.Tag)
			}
			if p.Now() != 1.5 {
				t.Errorf("receiver clock = %g, want 1.5 (arrival)", p.Now())
			}
		}
	})
}

func TestRecvWildcards(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Run(3, func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(2, 10, 100, 1.0)
		case 1:
			p.Send(2, 20, 200, 2.0)
		case 2:
			a := p.Recv(AnySource, 20)
			if a.Payload.(int) != 200 {
				t.Errorf("tag-selected recv got %v", a.Payload)
			}
			b := p.Recv(AnySource, AnyTag)
			if b.Payload.(int) != 100 {
				t.Errorf("wildcard recv got %v", b.Payload)
			}
		}
	})
}

func TestFIFOPerSourceTag(t *testing.T) {
	const n = 50
	e := NewEngine(Config{Seed: 1})
	e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < n; i++ {
				p.Send(1, 3, i, p.Now()) // all arrive at t=0
			}
		} else {
			for i := 0; i < n; i++ {
				m := p.Recv(0, 3)
				if m.Payload.(int) != i {
					t.Fatalf("message %d out of order: got %v", i, m.Payload)
				}
			}
		}
	})
}

// TestWildcardInterleavedWithTagged pins the ordering contract the indexed
// mailbox must uphold: per-(src,tag) streams are FIFO, wildcard receives
// take the earliest-deposited matching message, and interleaving tagged and
// wildcard receives never reorders either view.
//
// Proc 0 runs to completion first (smallest id at t=0), then proc 1, so the
// deposit order at proc 2 is a0 a1 a2 b0 b1 c0.
func TestWildcardInterleavedWithTagged(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Run(3, func(p *Proc) {
		switch p.ID() {
		case 0:
			for _, s := range []string{"a0", "a1", "a2"} {
				p.Send(2, 1, s, p.Now())
			}
		case 1:
			p.Advance(1e-9) // deposit strictly after proc 0's sends
			for _, s := range []string{"b0", "b1"} {
				p.Send(2, 1, s, p.Now())
			}
			p.Send(2, 2, "c0", p.Now())
		case 2:
			p.AdvanceTo(1) // everything already deposited when we start
			steps := []struct {
				src, tag int
				want     string
			}{
				{1, 2, "c0"},              // exact match skips earlier tag-1 traffic
				{AnySource, 1, "a0"},      // earliest deposit wins among a0/b0
				{0, 1, "a1"},              // FIFO within (0,1) despite the wildcard pop
				{AnySource, AnyTag, "a2"}, // full wildcard: earliest remaining deposit
				{AnySource, AnyTag, "b0"}, // then the (1,1) stream, still in order
				{1, 1, "b1"},              // tagged tail of the wildcard-drained stream
			}
			for i, s := range steps {
				m := p.Recv(s.src, s.tag)
				if m.Payload.(string) != s.want {
					t.Fatalf("step %d: Recv(%d,%d) = %v, want %q",
						i, s.src, s.tag, m.Payload, s.want)
				}
			}
		}
	})
}

// TestSchedulerOrder verifies the engine always runs the proc with the
// smallest virtual clock, so cross-proc event interleavings follow virtual
// time rather than goroutine scheduling.
func TestSchedulerOrder(t *testing.T) {
	var order []int
	e := NewEngine(Config{Seed: 1})
	e.Run(3, func(p *Proc) {
		// Proc i advances by i+1 each step; record who acts at each turn.
		for step := 0; step < 3; step++ {
			order = append(order, p.ID())
			p.Advance(float64(p.ID() + 1))
			p.Sync() // scheduling point: hand control to the min-clock proc
		}
	})
	// Clocks: p0 hits 1,2,3; p1 hits 2,4,6; p2 hits 3,6,9.
	// Turn order by (time, id): p0@0 p1@0 p2@0 p0@1 p0@2 p1@2 p0=done p2@3 p1@4 p2@6 p2... -> p2@6? p1@6 done
	want := []int{0, 1, 2, 0, 0, 1, 2, 1, 2}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("scheduling order = %v, want %v", order, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(Config{Seed: 42})
		finish := make([]float64, 8)
		e.Run(8, func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Advance(p.Rand().Float64() * 1e-3) // random per-rank compute time
				p.Send((p.ID()+1)%8, 5, p.ID(), p.Now()+1e-6)
				m := p.Recv(AnySource, 5)
				p.AdvanceTo(m.Arrival)
			}
			finish[p.ID()] = p.Now()
		})
		return finish
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d finish differs across runs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	NewEngine(Config{}).Run(2, func(p *Proc) {
		p.Recv(AnySource, AnyTag) // nobody ever sends
	})
}

func TestBodyPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected body panic to propagate")
		}
		// The engine re-raises the panic with the originating proc's
		// stack attached for diagnosis.
		s, ok := r.(string)
		if !ok || !strings.HasPrefix(s, "boom") || !strings.Contains(s, "proc 1 stack") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	NewEngine(Config{}).Run(3, func(p *Proc) {
		if p.ID() == 1 {
			panic("boom")
		}
	})
}

func TestRunReturnsMaxFinishTime(t *testing.T) {
	e := NewEngine(Config{})
	end := e.Run(4, func(p *Proc) { p.Advance(float64(p.ID())) })
	if end != 3 {
		t.Errorf("Run = %g, want 3", end)
	}
}

func TestResourceSequentialBookings(t *testing.T) {
	r := NewResource("ost0")
	s, e := r.Acquire(0, 10)
	if s != 0 || e != 10 {
		t.Fatalf("first booking [%g,%g), want [0,10)", s, e)
	}
	s, e = r.Acquire(0, 5) // must queue behind the first
	if s != 10 || e != 15 {
		t.Fatalf("second booking [%g,%g), want [10,15)", s, e)
	}
	s, e = r.Acquire(100, 1)
	if s != 100 || e != 101 {
		t.Fatalf("late booking [%g,%g), want [100,101)", s, e)
	}
	if got := r.BusyTime(); got != 16 {
		t.Errorf("BusyTime = %g, want 16", got)
	}
}

func TestResourceGapFilling(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 2)         // [0,2)
	r.Acquire(10, 2)        // [10,12)
	s, e := r.Acquire(1, 3) // fits in [2,10) gap starting at 2
	if s != 2 || e != 5 {
		t.Fatalf("gap booking [%g,%g), want [2,5)", s, e)
	}
	s, e = r.Acquire(0, 6) // gap [5,10) too small? 10-5=5 < 6 -> after 12
	if s != 12 || e != 18 {
		t.Fatalf("oversize booking [%g,%g), want [12,18)", s, e)
	}
	s, e = r.Acquire(0, 5) // exactly fits [5,10)
	if s != 5 || e != 10 {
		t.Fatalf("exact-fit booking [%g,%g), want [5,10)", s, e)
	}
}

// TestResourceAdjacentBookingsStayCompact pins the eager-merge behaviour of
// the interval ledger: back-to-back bookings must collapse into a single
// interval instead of accumulating one entry per request.
func TestResourceAdjacentBookingsStayCompact(t *testing.T) {
	r := NewResource("ost")
	at := 0.0
	for i := 0; i < 1000; i++ {
		_, end := r.Acquire(at, 0.5)
		at = end
	}
	if n := r.NumIntervals(); n != 1 {
		t.Fatalf("ledger holds %d intervals after adjacent bookings, want 1", n)
	}
	if got := r.BusyTime(); got != 500 {
		t.Errorf("BusyTime = %g, want 500", got)
	}
	// Out-of-order bookings that exactly fill a gap must merge too.
	r2 := NewResource("gap")
	r2.Acquire(0, 1) // [0,1)
	r2.Acquire(2, 1) // [2,3)
	r2.Acquire(0, 1) // fills [1,2)
	if n := r2.NumIntervals(); n != 1 {
		t.Fatalf("gap fill left %d intervals, want 1", n)
	}
}

// TestResourceTrim verifies Trim keeps results bit-identical for bookings at
// or after the watermark while shrinking the ledger and preserving BusyTime.
func TestResourceTrim(t *testing.T) {
	build := func() *Resource {
		r := NewResource("frag")
		for i := 0; i < 100; i++ {
			r.Acquire(float64(3*i), 1) // fragmented: [0,1) [3,4) [6,7) ...
		}
		return r
	}
	plain, trimmed := build(), build()
	trimmed.Trim(150)
	if n := trimmed.NumIntervals(); n >= plain.NumIntervals() {
		t.Fatalf("Trim did not shrink the ledger: %d vs %d", n, plain.NumIntervals())
	}
	if a, b := plain.BusyTime(), trimmed.BusyTime(); a != b {
		t.Fatalf("Trim changed BusyTime: %g vs %g", b, a)
	}
	// Future bookings at or after the watermark behave identically.
	for i := 0; i < 50; i++ {
		at := 150 + float64(7*i%40)
		s1, e1 := plain.Acquire(at, 0.9)
		s2, e2 := trimmed.Acquire(at, 0.9)
		if s1 != s2 || e1 != e2 {
			t.Fatalf("booking %d diverged after Trim: [%g,%g) vs [%g,%g)", i, s2, e2, s1, e1)
		}
	}
	if a, b := plain.BusyTime(), trimmed.BusyTime(); a != b {
		t.Errorf("BusyTime diverged after post-trim bookings: %g vs %g", b, a)
	}
}

func TestResourceNextFree(t *testing.T) {
	r := NewResource("x")
	r.Acquire(5, 5) // [5,10)
	if got := r.NextFree(0); got != 0 {
		t.Errorf("NextFree(0) = %g, want 0", got)
	}
	if got := r.NextFree(7); got != 10 {
		t.Errorf("NextFree(7) = %g, want 10", got)
	}
	if got := r.NextFree(11); got != 11 {
		t.Errorf("NextFree(11) = %g, want 11", got)
	}
}

// Property: for any sequence of bookings, intervals in the ledger never
// overlap and every booking is at least as long as requested and no earlier
// than requested.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("p")
		type booking struct{ s, e float64 }
		var got []booking
		n := int(nOps)%64 + 1
		for i := 0; i < n; i++ {
			at := rng.Float64() * 100
			dur := rng.Float64() * 10
			s, e := r.Acquire(at, dur)
			if s < at {
				t.Logf("booking starts before requested: %g < %g", s, at)
				return false
			}
			if e-s < dur-1e-12 {
				t.Logf("booking shorter than requested: %g < %g", e-s, dur)
				return false
			}
			got = append(got, booking{s, e})
		}
		// Verify pairwise non-overlap of all returned (positive) bookings.
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				a, b := got[i], got[j]
				if a.s < b.e && b.s < a.e && a.e-a.s > 0 && b.e-b.s > 0 {
					t.Logf("overlap [%g,%g) vs [%g,%g)", a.s, a.e, b.s, b.e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEngineReusePanics(t *testing.T) {
	e := NewEngine(Config{})
	e.Run(1, func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on engine reuse")
		}
	}()
	e.Run(1, func(p *Proc) {})
}

func TestEngineStats(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, nil, p.Now())
		} else {
			p.Recv(0, 1)
		}
	})
	st := e.Stats()
	if st.Sends != 1 {
		t.Errorf("sends = %d want 1", st.Sends)
	}
	if st.Resumes < 2 {
		t.Errorf("resumes = %d want >= 2", st.Resumes)
	}
}

func TestSyncFastPath(t *testing.T) {
	// A proc that is already the minimum-clock runnable proc must pass
	// Sync without yielding (observable via unchanged resume count).
	e := NewEngine(Config{Seed: 1})
	e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			before := e.Stats().Resumes
			p.Sync() // proc 1 is ready at t=0 with higher id -> no yield
			if e.Stats().Resumes != before {
				t.Error("Sync yielded despite being first in order")
			}
			p.Advance(1)
			p.Sync() // now proc 1 (t=0) must run first
			if e.Stats().Resumes == before {
				t.Error("Sync did not yield to an earlier proc")
			}
		}
	})
}
