package sim

import (
	"testing"
)

// The progress engine's contract: a deferred completion registered with
// After fires exactly once, on its own proc, at the first clock-advancing
// point at or past its due time — never inside After itself, never early,
// and in (time, registration) order when several are due together.

func TestAfterFiresOnAdvance(t *testing.T) {
	NewEngine(Config{Seed: 1}).Run(1, func(p *Proc) {
		var firedAt float64 = -1
		pd := p.After(1.0, func() { firedAt = p.Now() })
		if pd.Fired() {
			t.Fatal("fired inside After")
		}
		p.Advance(0.5)
		if firedAt >= 0 {
			t.Fatalf("fired early at %g", firedAt)
		}
		p.Advance(0.6) // clock passes 1.0
		if !pd.Fired() || firedAt != p.Now() {
			t.Fatalf("fired=%v at=%g now=%g", pd.Fired(), firedAt, p.Now())
		}
	})
}

func TestAfterDueNowFiresOnNextAdvance(t *testing.T) {
	// A completion due at (or before) the current clock still waits for the
	// next clock-advancing point: After never runs callbacks synchronously.
	NewEngine(Config{Seed: 1}).Run(1, func(p *Proc) {
		p.Advance(2.0)
		fired := false
		p.After(1.0, func() { fired = true }) // already past due
		if fired {
			t.Fatal("After ran its callback synchronously")
		}
		p.Advance(0) // zero-width advance is still a firing point
		if !fired {
			t.Fatal("due completion did not fire on Advance(0)")
		}
	})
}

func TestAfterOrderAndCancel(t *testing.T) {
	NewEngine(Config{Seed: 1}).Run(1, func(p *Proc) {
		var order []int
		p.After(2.0, func() { order = append(order, 2) })
		a := p.After(1.0, func() { order = append(order, 1) })
		c := p.After(1.5, func() { order = append(order, 99) })
		// Same due time as an earlier registration: registration order wins.
		p.After(1.0, func() { order = append(order, 3) })
		c.Cancel()
		if a.Fired() {
			t.Fatal("premature fire")
		}
		p.Advance(5)
		want := []int{1, 3, 2}
		if len(order) != len(want) {
			t.Fatalf("order = %v want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v want %v", order, want)
			}
		}
		if p.PendingOps() != 0 {
			t.Errorf("%d pending ops left", p.PendingOps())
		}
	})
}

func TestAfterFiresOnRecv(t *testing.T) {
	// Blocking receives are clock-advancing points too: a completion due
	// before the message arrival must fire during the Recv.
	NewEngine(Config{Seed: 1}).Run(2, func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Advance(1.0)
			p.Send(1, 5, nil, p.Now()+1.0) // arrives at t=2
		case 1:
			fired := false
			p.After(0.5, func() { fired = true })
			p.Recv(0, 5)
			if !fired {
				t.Error("completion did not fire during blocking Recv")
			}
			if p.Now() != 2.0 {
				t.Errorf("Recv returned at %g want 2", p.Now())
			}
		}
	})
}

func TestAfterCallbackMayRegisterMore(t *testing.T) {
	// A firing callback registering a new completion must not corrupt the
	// heap; the new completion fires at its own due point.
	NewEngine(Config{Seed: 1}).Run(1, func(p *Proc) {
		hits := 0
		p.After(1.0, func() {
			hits++
			p.After(2.0, func() { hits++ })
		})
		p.Advance(1.2)
		if hits != 1 {
			t.Fatalf("hits = %d want 1", hits)
		}
		p.Advance(1.0)
		if hits != 2 {
			t.Fatalf("hits = %d want 2", hits)
		}
	})
}

func TestAfterNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from After(nil)")
		}
	}()
	NewEngine(Config{}).Run(1, func(p *Proc) { p.After(1, nil) })
}
