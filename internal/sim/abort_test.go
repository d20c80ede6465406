package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// settleGoroutines waits briefly for exiting goroutines to be reaped and
// returns the final count: a finished proc signals the engine from its
// deferred epilogue, so its goroutine may still be returning when Run does.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// runRecovered runs body on n procs and returns the panic value Run raised
// (nil on a clean run).
func runRecovered(n int, body func(p *Proc)) (r any) {
	defer func() { r = recover() }()
	NewEngine(Config{Seed: 1}).Run(n, body)
	return nil
}

// TestFailedRunReleasesProcs pins that Run leaves no proc goroutine behind:
// after a clean, a panicked and a deadlocked 64-proc run the goroutine count
// is back at its pre-Run value, every body's deferred calls ran, and the
// panic Run re-raises is the failure itself, not the engine's unwinding.
func TestFailedRunReleasesProcs(t *testing.T) {
	const n = 64
	cases := []struct {
		name  string
		body  func(p *Proc)
		check func(r any) bool
	}{
		{"clean", func(p *Proc) {
			p.Advance(1)
			p.Sync()
		}, func(r any) bool { return r == nil }},
		{"panic", func(p *Proc) {
			// Every proc starts and parks in Sync before proc 5 panics,
			// leaving the rest parked mid-body or blocked in Recv.
			p.Advance(1)
			p.Sync()
			if p.ID() == 5 {
				panic("boom")
			}
			p.Recv(AnySource, AnyTag)
		}, func(r any) bool {
			s, ok := r.(string)
			return ok && strings.HasPrefix(s, "boom\n\nproc 5 stack:\n")
		}},
		{"deadlock", func(p *Proc) {
			p.Advance(float64(p.ID()))
			p.Recv(AnySource, AnyTag) // nobody ever sends
		}, func(r any) bool {
			s, ok := r.(string)
			return ok && strings.HasPrefix(s, "sim: deadlock\n  proc 0: t=0.000000000 blocked on Recv(src=-1, tag=-1)")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var deferred atomic.Int64
			r := runRecovered(n, func(p *Proc) {
				defer deferred.Add(1)
				c.body(p)
			})
			if !c.check(r) {
				t.Fatalf("Run raised %v", r)
			}
			if got := settleGoroutines(before); got != before {
				t.Errorf("goroutines: %d before Run, %d after", before, got)
			}
			if got := deferred.Load(); got != n {
				t.Errorf("%d of %d body defers ran", got, n)
			}
		})
	}
}

// TestAbortedDeferMayBlock pins that a body defer which itself blocks while
// the engine unwinds a failed run is unwound too, and cannot replace the
// original failure.
func TestAbortedDeferMayBlock(t *testing.T) {
	before := runtime.NumGoroutine()
	r := runRecovered(3, func(p *Proc) {
		if p.ID() == 2 {
			panic("boom") // procs 0 and 1 are already blocked in Recv
		}
		defer p.Recv(AnySource, AnyTag)
		p.Recv(AnySource, AnyTag)
	})
	if s, ok := r.(string); !ok || !strings.HasPrefix(s, "boom\n\nproc 2 stack:\n") {
		t.Fatalf("Run raised %v", r)
	}
	if got := settleGoroutines(before); got != before {
		t.Errorf("goroutines: %d before Run, %d after", before, got)
	}
}

// TestDeadlockReport pins the full text of a deadlock diagnosis: every
// unfinished proc with its clock, what it is blocked on and its mailbox depth.
func TestDeadlockReport(t *testing.T) {
	r := runRecovered(3, func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Advance(0.5)
			p.Send(2, 3, "x", 0.75)
			p.Recv(1, 7)
		case 1:
			p.Advance(1.25)
			p.Recv(AnySource, 4)
		case 2:
			p.Recv(1, 9)
		}
	})
	const want = "sim: deadlock\n" +
		"  proc 0: t=0.500000000 blocked on Recv(src=1, tag=7) (mailbox 0 msgs)\n" +
		"  proc 1: t=1.250000000 blocked on Recv(src=-1, tag=4) (mailbox 0 msgs)\n" +
		"  proc 2: t=0.000000000 blocked on Recv(src=1, tag=9) (mailbox 1 msgs)\n"
	if r != want {
		t.Errorf("deadlock report:\n%q\nwant\n%q", r, want)
	}
}
