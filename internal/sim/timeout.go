package sim

// Deadline receives: the failure-detection primitive.
//
// RecvUntil is Recv with a virtual-time watchdog. A blocked proc cannot
// advance its own clock, so — unlike the deferred completions in pending.go,
// which fire from the proc's own progress points — a receive timeout must be
// fired by the scheduler: the engine keeps a second minHeap of armed
// deadlines beside the ready queue and, whenever every runnable proc's
// resume time lies past the earliest armed deadline (or none is runnable at
// all), wakes that waiter empty-handed at exactly its deadline. Deadlines
// are pure virtual time, so a run with watchdogs that never fire is
// bit-identical to one using plain Recv, and one where they do fire is as
// deterministic as any other schedule.
//
// The tie rules live in the keys: the ready queue orders by (resume time,
// proc id), the deadline queue by (deadline, proc id), and a runnable proc
// at the same virtual time as a deadline runs first. A timeout fires only
// when it is strictly the earliest thing the engine could do — so a message
// sent "just in time" still wins.

// armed is one deadline entry's value. Entries are lazily invalidated: a
// wake leaves the proc's entry in the heap, recognized as stale because the
// wake moved the proc's generation on.
type armed struct {
	p   *Proc
	gen uint64
}

// peekTimeout discards stale entries and returns the earliest armed
// deadline.
func (e *Engine) peekTimeout() (float64, bool) {
	for len(e.dl) > 0 {
		if a := e.dl[0].v; a.p.dlGen != a.gen {
			e.dl.pop()
			continue
		}
		return e.dl[0].at, true
	}
	return 0, false
}

// fireTimeout wakes the earliest armed waiter empty-handed at its deadline.
func (e *Engine) fireTimeout() {
	top := e.dl.pop()
	e.stats.Timeouts.Inc()
	e.wake(top.v.p, top.at)
}

// RecvUntil blocks until a message with the exact (src, tag) arrives with
// arrival time <= deadline, returning (msg, true); if the proc's clock
// reaches the deadline first, it returns (Message{}, false) with the clock
// advanced to exactly the deadline. Wildcards are not supported: failure
// detection is always about a specific peer. A deadline already in the past
// degenerates to a non-blocking receive of messages that have truly arrived.
// Messages are delivered in send order, exactly like Recv; a head that
// arrives past the deadline counts as a timeout. A +Inf deadline is a plain
// Recv.
func (p *Proc) RecvUntil(src, tag int, deadline float64) (Message, bool) {
	return p.recv(recvSpec{src: src, tag: tag}, deadline)
}
