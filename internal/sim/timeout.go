package sim

import "fmt"

// Deadline receives: the failure-detection primitive.
//
// RecvUntil is Recv with a virtual-time watchdog. A blocked proc cannot
// advance its own clock, so — unlike the deferred completions in pending.go,
// which fire from the proc's own progress points — a receive timeout must be
// fired by the scheduler: the engine keeps a min-heap of armed deadlines
// beside the ready heap and, whenever every runnable proc's resume time lies
// past the earliest armed deadline (or none is runnable at all), wakes that
// waiter empty-handed at exactly its deadline. Deadlines are pure virtual
// time, so a run with watchdogs that never fire is bit-identical to one
// using plain Recv, and one where they do fire is as deterministic as any
// other schedule.
//
// Tie rule: a runnable proc at the same virtual time as a deadline runs
// first. A timeout fires only when it is strictly the earliest thing the
// engine could do — so a message sent "just in time" still wins.

// dlEntry is one armed deadline. Entries are lazily invalidated: a proc that
// was woken by a matching Send (or re-armed a later deadline) leaves its old
// entry in the heap, recognized as stale by the generation counter.
type dlEntry struct {
	p   *Proc
	at  float64
	gen uint64
}

// dlHeap is a binary min-heap of armed deadlines keyed by (at, proc id).
type dlHeap []dlEntry

func (h dlHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].p.id < h[j].p.id
}

func (h *dlHeap) push(e dlEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *dlHeap) pop() dlEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = dlEntry{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// stale reports whether the entry no longer represents an armed deadline.
func (e dlEntry) stale() bool {
	return !e.p.hasDeadline || e.p.dlGen != e.gen
}

// peekTimeout discards stale entries and returns the earliest armed
// deadline, or nil.
func (e *Engine) peekTimeout() *dlEntry {
	for len(e.dl) > 0 {
		if e.dl[0].stale() {
			e.dl.pop()
			continue
		}
		return &e.dl[0]
	}
	return nil
}

// fireTimeout wakes the earliest armed waiter empty-handed at its deadline.
func (e *Engine) fireTimeout() {
	ent := e.dl.pop()
	p := ent.p
	p.hasDeadline = false
	p.hasPending = false
	p.state = stateReady
	p.readyAt = ent.at
	e.stats.Timeouts.Inc()
	e.ready.push(p)
}

// takeBefore pops the head of the exact (src, tag) queue only if its arrival
// does not exceed the deadline. RecvUntil delivers in send order, exactly
// like Recv; a head that arrives past the deadline counts as a timeout.
func (mb *mailbox) takeBefore(spec recvSpec, deadline float64, st *Stats) (Message, bool) {
	if mb.count == 0 {
		return Message{}, false
	}
	key := srcTag{spec.src, spec.tag}
	q := mb.queues[key]
	if q == nil || q.msgs[q.head].Arrival > deadline {
		return Message{}, false
	}
	st.ExactPops.Inc()
	return mb.popFrom(key, q), true
}

// RecvUntil blocks until a message with the exact (src, tag) arrives with
// arrival time <= deadline, returning (msg, true); if the proc's clock
// reaches the deadline first, it returns (Message{}, false) with the clock
// advanced to exactly the deadline. Wildcards are not supported: failure
// detection is always about a specific peer. A deadline already in the past
// degenerates to a non-blocking receive of messages that have truly arrived.
func (p *Proc) RecvUntil(src, tag int, deadline float64) (Message, bool) {
	if src == AnySource || tag == AnyTag {
		panic(fmt.Sprintf("sim: proc %d RecvUntil with wildcard (src=%d, tag=%d)", p.id, src, tag))
	}
	spec := recvSpec{src: src, tag: tag}
	for {
		if m, ok := p.mb.takeBefore(spec, deadline, &p.engine.stats); ok {
			if m.Arrival > p.now {
				p.now = m.Arrival
			}
			p.fireDue()
			p.engine.stats.Recvs.Inc()
			return m, true
		}
		if p.now >= deadline {
			p.fireDue()
			return Message{}, false
		}
		p.pending = spec
		p.hasPending = true
		p.state = stateBlocked
		p.blockedOn = blockRecv
		p.deadline = deadline
		p.hasDeadline = true
		p.dlGen++
		p.engine.dl.push(dlEntry{p: p, at: deadline, gen: p.dlGen})
		p.yield()
		p.hasDeadline = false
	}
}
