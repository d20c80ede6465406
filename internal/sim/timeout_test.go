package sim

import "testing"

// TestRecvUntilDeliversInTime: a message arriving before the deadline is
// delivered exactly as plain Recv would deliver it.
func TestRecvUntilDeliversInTime(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	var got Message
	var ok bool
	e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(1)
			p.Send(1, 7, "hi", p.Now())
			return
		}
		got, ok = p.RecvUntil(0, 7, p.Now()+10)
	})
	if !ok || got.Src != 0 || got.Tag != 7 || got.Payload.(string) != "hi" {
		t.Fatalf("RecvUntil = %+v, %v; want delivery from 0 tag 7", got, ok)
	}
	if got.Arrival != 1 {
		t.Fatalf("arrival = %g, want 1", got.Arrival)
	}
	if e.Stats().Timeouts.Value() != 0 {
		t.Fatalf("timeouts fired on an in-time delivery")
	}
}

// TestRecvUntilTimesOut: with no sender, the waiter wakes empty-handed at
// exactly its deadline even though another proc is still running later.
func TestRecvUntilTimesOut(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	var at float64
	var ok bool
	e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(50) // never sends
			return
		}
		_, ok = p.RecvUntil(0, 7, p.Now()+2.5)
		at = p.Now()
	})
	if ok {
		t.Fatal("RecvUntil returned a message nobody sent")
	}
	if at != 2.5 {
		t.Fatalf("timed out at %g, want exactly 2.5", at)
	}
	if e.Stats().Timeouts.Value() != 1 {
		t.Fatalf("Timeouts = %d, want 1", e.Stats().Timeouts.Value())
	}
}

// TestRecvUntilLateMessageIsTimeout: a matching message whose arrival lies
// past the deadline must not be delivered — the waiter times out at its
// deadline and the message stays queued for a later plain Recv.
func TestRecvUntilLateMessageIsTimeout(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	var at float64
	var ok, okLater bool
	e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, "late", 9.0) // arrival 9 > deadline 3
			return
		}
		_, ok = p.RecvUntil(0, 7, 3.0)
		at = p.Now()
		m := p.Recv(0, 7)
		okLater = m.Payload.(string) == "late" && p.Now() >= 9.0
	})
	if ok {
		t.Fatal("RecvUntil delivered a message that arrives after the deadline")
	}
	if at != 3.0 {
		t.Fatalf("timed out at %g, want 3.0", at)
	}
	if !okLater {
		t.Fatal("late message was not delivered to the follow-up Recv")
	}
}

// TestRecvUntilJustInTime pins the deadline tie rule for a waiter already
// blocked: a message arriving exactly at the deadline beats the watchdog.
func TestRecvUntilJustInTime(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	var m Message
	var ok bool
	e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(2e-4) // the receiver is blocked by the time we send
			p.Send(1, 5, "cargo", 1e-3)
			return
		}
		m, ok = p.RecvUntil(0, 5, 1e-3)
	})
	if !ok || m.Arrival != 1e-3 {
		t.Fatalf("RecvUntil = %+v, %v; want the arrival-at-deadline message", m, ok)
	}
	if e.Stats().Timeouts.Value() != 0 {
		t.Fatalf("the watchdog fired on a just-in-time arrival")
	}
}

// TestRecvUntilAlreadyExpired: a deadline at or before Now still delivers a
// queued in-time message, and otherwise returns immediately without moving
// the clock.
func TestRecvUntilAlreadyExpired(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, "queued", 0)
			return
		}
		p.Advance(5)
		if m, ok := p.RecvUntil(0, 7, p.Now()); !ok || m.Payload.(string) != "queued" {
			t.Errorf("expired-deadline RecvUntil missed a queued message")
		}
		now := p.Now()
		if _, ok := p.RecvUntil(0, 7, now-1); ok {
			t.Errorf("expired-deadline RecvUntil produced a message from nothing")
		}
		if p.Now() != now {
			t.Errorf("expired-deadline RecvUntil moved the clock %g -> %g", now, p.Now())
		}
	})
}

// TestRecvUntilDeterministic: a mix of served and timed-out receives yields
// bit-identical finish times and timeout counts across runs.
func TestRecvUntilDeterministic(t *testing.T) {
	run := func() (float64, uint64) {
		e := NewEngine(Config{Seed: 42})
		end := e.Run(4, func(p *Proc) {
			switch p.ID() {
			case 0:
				p.Advance(0.5)
				p.Send(1, 1, "a", p.Now())
			case 1:
				for i := 0; i < 3; i++ {
					p.RecvUntil(0, 1, p.Now()+0.4)
				}
			case 2:
				p.Advance(1.7)
				p.Send(3, 2, "b", p.Now())
			case 3:
				p.RecvUntil(2, 2, p.Now()+5)
			}
		})
		return end, e.Stats().Timeouts.Value()
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("runs differ: (%x, %d) vs (%x, %d)", e1, t1, e2, t2)
	}
	if t1 == 0 {
		t.Fatal("expected at least one timeout in this schedule")
	}
}

// TestPendingDrainedOnProcExit is the regression test for the deferred-
// completion leak: completions registered by a proc that finishes (or
// crashes) before their due time must be canceled, never fired.
func TestPendingDrainedOnProcExit(t *testing.T) {
	fired := false
	var exited *Proc
	e := NewEngine(Config{Seed: 1})
	e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			// Register a completion far in the future, then return: the
			// "crashed rank" whose callbacks must not outlive it.
			p.After(100, func() { fired = true })
			exited = p
			return
		}
		p.Advance(500) // the survivor's clock passes the orphan's due time
	})
	if fired {
		t.Fatal("a dead proc's deferred completion fired")
	}
	if n := exited.PendingOps(); n != 0 {
		t.Fatalf("dead proc still reports %d live pending ops, want 0", n)
	}
}
