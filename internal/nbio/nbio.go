// Package nbio provides the nonblocking-operation lifecycle for the
// simulator: Request handles with Test/Wait/Waitall and completion
// callbacks, in the mold of MPI's split collectives. A Request wraps an
// operation whose resource bookings were already made at issue time (see
// storage.File.Submit) but whose completion lies in the virtual future; the
// sim progress engine (sim.Proc.After) fires the completion when the owning
// rank's clock reaches it, so time the application spends computing between
// Begin and End absorbs — "hides" — the I/O tail. Whatever tail is still
// outstanding at Wait is exposed and charged to the rank's ClassIO clock,
// exactly as the blocking path would have charged it up front.
//
// Accounting: every request splits its tail (at − issued) into hidden and
// exposed portions. hidden + exposed == max(0, at − issued) always; the
// split depends only on virtual clocks, never on wall time, so determinism
// is preserved (DESIGN.md §9).
package nbio

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Request is one in-flight nonblocking operation.
type Request struct {
	r      *mpi.Rank
	issued float64 // rank clock when the operation was issued
	at     float64 // virtual completion time of the resource tail

	tailDone bool // the time tail has been accounted (hidden or charged)
	done     bool // fully complete: tail + finish + release + callbacks

	// finish, when non-nil, is deferred work that must run on the owning
	// rank before the operation's result is usable — e.g. draining the
	// final-round receives of a split collective read. It may advance the
	// clock and communicate; it runs only from Wait, never from the
	// progress engine.
	finish func()
	// release frees resources (arena buffers) once the result is consumed.
	release func()

	hidden  float64
	exposed float64

	cbs  []func(*Request)
	pend *sim.Pending
	op   any
}

// Start issues a request on rank r whose resource tail completes at virtual
// time `at`. finish is optional deferred completion work (runs in Wait);
// release is optional cleanup (runs exactly once when the request is done);
// op is an opaque payload retrievable via Op. If the tail is already due
// and there is no finish step, the request completes immediately.
func Start(r *mpi.Rank, at float64, finish, release func(), op any) *Request {
	q := &Request{r: r, issued: r.Now(), at: at, finish: finish, release: release, op: op}
	if at <= q.issued {
		q.tailDone = true
		if q.finish == nil {
			q.finishUp()
		}
	} else {
		q.pend = r.P.After(at, q.background)
	}
	return q
}

// background is the progress-engine callback: the rank's clock caught up
// with the tail while the application was doing something else, so the
// whole tail was hidden. Pure bookkeeping — no clock movement.
func (q *Request) background() {
	if q.done || q.tailDone {
		return
	}
	q.tailDone = true
	q.hidden += q.at - q.issued
	if q.finish == nil {
		q.finishUp()
	}
}

// finishUp marks the request done, releases resources, and fires callbacks.
func (q *Request) finishUp() {
	if q.done {
		return
	}
	q.done = true
	if q.release != nil {
		rel := q.release
		q.release = nil
		rel()
	}
	cbs := q.cbs
	q.cbs = nil
	for _, cb := range cbs {
		cb(q)
	}
}

// Wait blocks (in virtual time) until the request is complete, charging any
// still-exposed tail to the rank's ClassIO clock, then runs the deferred
// finish step. Idempotent.
func (q *Request) Wait() {
	if q.done {
		return
	}
	if !q.tailDone {
		// Cancel before charging: ChargeIO advances the clock, which would
		// otherwise fire background() mid-Wait and double-count the tail.
		if q.pend != nil {
			q.pend.Cancel()
		}
		q.tailDone = true
		now := q.r.Now()
		if q.at > now {
			q.hidden += now - q.issued
			q.exposed += q.at - now
			q.r.ChargeIO(q.at - now)
		} else {
			q.hidden += q.at - q.issued
		}
	}
	if q.finish != nil {
		fn := q.finish
		q.finish = nil
		fn()
	}
	q.finishUp()
}

// Test reports whether the request is complete, completing it for free when
// its tail is due and it has no deferred finish work. A request with a
// finish step only completes via Wait — Test stays false so the caller
// knows End-side work remains.
func (q *Request) Test() bool {
	if q.done {
		return true
	}
	if q.finish != nil {
		return false
	}
	if q.at <= q.r.Now() {
		if q.pend != nil {
			q.pend.Cancel()
		}
		if !q.tailDone {
			q.tailDone = true
			q.hidden += q.at - q.issued
		}
		q.finishUp()
		return true
	}
	return false
}

// Waitall waits on every request in order. Deterministic: completion order
// is the slice order, not the tail order.
func Waitall(reqs ...*Request) {
	for _, q := range reqs {
		if q != nil {
			q.Wait()
		}
	}
}

// OnComplete registers fn to run when the request completes; if it already
// has, fn runs immediately. Callbacks fire in registration order and must
// not advance the clock when the completion comes from the progress engine.
func (q *Request) OnComplete(fn func(*Request)) {
	if q.done {
		fn(q)
		return
	}
	q.cbs = append(q.cbs, fn)
}

// Done reports completion without side effects.
func (q *Request) Done() bool { return q.done }

// Hidden returns the virtual seconds of this request's tail that overlapped
// with other work on the owning rank.
func (q *Request) Hidden() float64 { return q.hidden }

// Exposed returns the virtual seconds charged to the rank at Wait.
func (q *Request) Exposed() float64 { return q.exposed }

// At returns the tail's virtual completion time.
func (q *Request) At() float64 { return q.at }

// Issued returns the rank clock at Start.
func (q *Request) Issued() float64 { return q.issued }

// Op returns the opaque payload supplied at Start.
func (q *Request) Op() any { return q.op }
