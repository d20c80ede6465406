package sim

import "fmt"

// Deferred completions: the progress engine behind nonblocking operations.
//
// A proc registers a completion callback with After(at, fn); the engine fires
// it the first time the proc's virtual clock reaches `at`. Because procs run
// cooperatively — the engine resumes exactly one at a time, always the one
// with the smallest clock — the only moments a proc's clock can move are its
// own Advance/AdvanceTo calls and the arrival alignment inside Recv. Those
// call sites drain the proc's due-completion queue, so a pending operation
// "progresses in the background" whenever the owning rank yields or burns
// compute, without any real concurrency. Completions fire in (at,
// registration-order) order, a pure function of the program and the seed, so
// run-twice bit-identity is preserved (see DESIGN.md §9).
//
// Callbacks run on the owning proc's goroutine and must not advance the
// clock, block, or send: they are bookkeeping hooks (marking a request done,
// recording hidden time), not simulated work. A callback that needs to block
// belongs in the explicit Wait path of the higher layer.

type pendingState uint8

const (
	pendWaiting pendingState = iota
	pendFired
	pendCanceled
)

// Pending is a handle to one deferred completion.
type Pending struct {
	fn    func()
	state pendingState
}

// Fired reports whether the callback has run.
func (pd *Pending) Fired() bool { return pd.state == pendFired }

// Cancel withdraws a not-yet-fired completion; the callback will never run.
// Canceling a fired completion is a no-op.
func (pd *Pending) Cancel() {
	if pd.state == pendWaiting {
		pd.state = pendCanceled
	}
}

// After registers fn to fire when the proc's clock reaches at. If at is
// already due, the callback still fires at the next progress point (an
// Advance, AdvanceTo, Recv or RecvUntil call), never inside After itself —
// registration is side-effect free.
func (p *Proc) After(at float64, fn func()) *Pending {
	if fn == nil {
		panic(fmt.Sprintf("sim: proc %d After with nil callback", p.id))
	}
	p.pendSeq++
	pd := &Pending{fn: fn}
	p.pend.push(at, p.pendSeq, pd)
	return pd
}

// PendingOps reports the number of live (unfired, uncanceled) deferred
// completions — diagnostics and tests.
func (p *Proc) PendingOps() int {
	n := 0
	for _, s := range p.pend {
		if s.v.state == pendWaiting {
			n++
		}
	}
	return n
}

// drainPending cancels every live deferred completion and empties the heap.
// The engine calls it when a proc's body returns (normally or by panic):
// completions registered by a finished or crashed proc must never fire, and
// must not linger as live entries against a dead rank. It returns the number
// of completions canceled (regression tests assert on it indirectly via
// PendingOps).
func (p *Proc) drainPending() int {
	n := 0
	for _, s := range p.pend {
		if s.v.state == pendWaiting {
			s.v.state = pendCanceled
			n++
		}
	}
	p.pend = p.pend[:0]
	return n
}

// fireDue drains due completions. Called from every clock-advancing path;
// the leading length check keeps the blocking hot paths free when no
// nonblocking operation is in flight. Reentrancy (a callback that triggers
// another progress point) is suppressed: the outer loop re-examines the heap
// after every callback, so nothing is lost.
func (p *Proc) fireDue() {
	if len(p.pend) == 0 || p.firing {
		return
	}
	p.firing = true
	for len(p.pend) > 0 {
		top := p.pend[0]
		if top.v.state != pendWaiting {
			p.pend.pop()
			continue
		}
		if top.at > p.now {
			break
		}
		p.pend.pop()
		top.v.state = pendFired
		top.v.fn()
	}
	p.firing = false
}
