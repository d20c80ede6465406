// Package sim provides a deterministic virtual-time simulation engine.
//
// The engine runs a fixed set of procs (simulated processes) as goroutines,
// but cooperatively: exactly one proc executes at a time, and the engine
// always resumes the runnable proc with the smallest virtual clock (ties
// broken by proc id). Procs advance their own clocks explicitly and
// communicate through tagged messages whose arrival times are supplied by
// the caller (higher layers compute arrival from a network cost model).
// Because scheduling depends only on virtual time and proc ids, a run is
// fully deterministic for a given seed and program. A failed run (a proc
// body panics, or every unfinished proc is blocked) unwinds all procs before
// Run re-panics, so no proc goroutine outlives its Run.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/perf"
)

// AnySource and AnyTag are wildcards accepted by Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Message is a delivered message as returned by Recv.
type Message struct {
	Src     int
	Tag     int
	Payload any
	Arrival float64 // virtual time at which the message reached the receiver
	seq     uint64
}

// Config parameterizes an Engine.
type Config struct {
	// Seed drives all per-proc random number generators. Two runs of the
	// same program with the same seed produce identical event orders.
	Seed int64
	// Perturber, when non-nil, injects deterministic perturbations into
	// the virtual-time model (see the Perturber interface). nil runs the
	// unperturbed model.
	Perturber Perturber
}

// Perturber perturbs the engine's virtual-time model without breaking
// determinism. Implementations must be pure: any randomness must come from
// the *rand.Rand the engine passes in (seeded from Config.Seed and consumed
// in the engine's serialized execution order), never from wall time or
// global state. internal/fault provides the canonical implementation.
type Perturber interface {
	// ComputeScale returns the multiplicative slowdown applied to every
	// Advance of the given proc (1 = unperturbed). It is sampled once per
	// proc at Run start, so it must be a pure function of the proc id.
	ComputeScale(proc int) float64
	// DeliveryDelay returns extra seconds added to the arrival time of a
	// message from src to dst whose unperturbed arrival is `at` (so loss
	// windows and retransmission models can be pure functions of virtual
	// time). rng is the engine's dedicated perturbation generator;
	// implementations that perturb nothing must not draw.
	DeliveryDelay(src, dst int, at float64, rng *rand.Rand) float64
}

// Engine owns the virtual clock and the proc scheduler.
type Engine struct {
	cfg     Config
	procs   []*Proc
	ready   minHeap[*Proc] // procs in stateReady, keyed by (resume time, id)
	dl      minHeap[armed] // armed RecvUntil deadlines, keyed by (at, id)
	yieldCh chan struct{}
	seq     uint64 // global message sequence for FIFO tie-breaks
	panicV  any
	stopped bool
	// aborting is set while a failed Run unwinds its unfinished procs: a
	// proc resumed (or yielding) in that state panics with abortPanic.
	aborting bool
	stats    Stats
	frng     *rand.Rand // perturbation draws (delivery jitter); seeded, serialized
}

// abortPanic is the sentinel a failed Run unwinds its remaining procs with.
// The engine recovers it itself, so it never replaces the run's failure.
type abortPanic struct{}

// minHeap is a binary min-heap whose slots carry their key inline as (at,
// tie). Every queue keeps its ties unique — a proc id, a registration
// sequence — so the pop order is a pure function of the keys.
type minHeap[T any] []slot[T]

type slot[T any] struct {
	at  float64
	tie uint64
	v   T
}

func (h minHeap[T]) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].tie < h[j].tie
}

func (h *minHeap[T]) push(at float64, tie uint64, v T) {
	*h = append(*h, slot[T]{at, tie, v})
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *minHeap[T]) pop() slot[T] {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = slot[T]{}
	*h = old[:n]
	for i := 0; ; {
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

// NewEngine returns an engine ready for a single Run call.
func NewEngine(cfg Config) *Engine {
	return &Engine{
		cfg:     cfg,
		yieldCh: make(chan struct{}),
		// The perturbation generator exists even without a Perturber so the
		// healthy path differs from the faulty one only in whether draws
		// happen, never in setup.
		frng: rand.New(rand.NewSource(cfg.Seed*999983 + 77)),
	}
}

// Proc is a simulated process. All methods must be called only from the
// proc's own body function (the engine guarantees single-threaded access).
type Proc struct {
	id       int
	now      float64
	engine   *Engine
	state    procState
	resume   chan struct{}
	mb       mailbox
	pending  recvSpec // valid while stateBlocked
	deadline float64  // valid while stateBlocked: the watchdog, +Inf in Recv
	dlGen    uint64   // counts wakes; a deadline armed before the last is stale
	rng      *rand.Rand
	slow     float64           // multiplicative Advance slowdown (1 = healthy)
	pend     minHeap[*Pending] // deferred completions keyed by (at, seq)
	pendSeq  uint64
	firing   bool // fireDue reentrancy guard
}

type recvSpec struct {
	src, tag int
}

// --- Indexed mailbox ---
//
// Messages are held in per-(src, tag) FIFO queues so the common exact-match
// Recv is an O(1) map lookup + pop instead of a scan of every queued
// message. Wildcard receives (AnySource and/or AnyTag) scan the *heads* of
// the non-empty queues and pick the matching message with the smallest
// global sequence number — exactly the message a linear scan of a deposit-
// ordered mailbox would return, so the indexing is invisible to program
// order. Per-queue FIFO preserves send order per (src, tag), and the unique
// sequence numbers make the wildcard choice deterministic even though the
// queue map itself iterates in arbitrary order.

// srcTag keys one FIFO queue.
type srcTag struct{ src, tag int }

// msgQueue is a FIFO of messages sharing one (src, tag) key. Popped slots
// are cleared and the backing array is reused once drained.
type msgQueue struct {
	msgs []Message
	head int
}

func (q *msgQueue) empty() bool { return q.head == len(q.msgs) }

// mailbox indexes a proc's undelivered messages. Queues are removed from
// the map the moment they drain (and parked on a free list for reuse), so
// wildcard scans only ever visit queues that hold at least one message.
type mailbox struct {
	queues map[srcTag]*msgQueue
	free   []*msgQueue // drained queues awaiting reuse
	count  int         // total undelivered messages
}

func (mb *mailbox) put(m Message) {
	key := srcTag{m.Src, m.Tag}
	q := mb.queues[key]
	if q == nil {
		if n := len(mb.free); n > 0 {
			q = mb.free[n-1]
			mb.free[n-1] = nil
			mb.free = mb.free[:n-1]
		} else {
			q = &msgQueue{}
		}
		if mb.queues == nil {
			mb.queues = make(map[srcTag]*msgQueue)
		}
		mb.queues[key] = q
	}
	q.msgs = append(q.msgs, m)
	mb.count++
}

func (mb *mailbox) popFrom(key srcTag, q *msgQueue) Message {
	m := q.msgs[q.head]
	q.msgs[q.head] = Message{} // drop payload reference promptly
	q.head++
	mb.count--
	if q.empty() {
		q.msgs = q.msgs[:0]
		q.head = 0
		delete(mb.queues, key)
		mb.free = append(mb.free, q)
	}
	return m
}

// take removes and returns the earliest-deposited message matching spec.
// An exact receive delivers in send order, so a head that arrives after
// deadline is not taken; wildcard receives carry no deadline.
func (mb *mailbox) take(spec recvSpec, deadline float64, st *Stats) (Message, bool) {
	if mb.count == 0 {
		return Message{}, false
	}
	if spec.src != AnySource && spec.tag != AnyTag {
		key := srcTag{spec.src, spec.tag}
		q := mb.queues[key]
		if q == nil || q.msgs[q.head].Arrival > deadline {
			return Message{}, false
		}
		st.ExactPops.Inc()
		return mb.popFrom(key, q), true
	}
	// Wildcard: the queue heads are each queue's earliest message, so the
	// earliest matching message overall is the matching head with the
	// smallest sequence number.
	var (
		bestKey srcTag
		bestQ   *msgQueue
		bestSeq uint64
	)
	for key, q := range mb.queues {
		st.WildcardScanned.Inc()
		if spec.src != AnySource && spec.src != key.src {
			continue
		}
		if spec.tag != AnyTag && spec.tag != key.tag {
			continue
		}
		if s := q.msgs[q.head].seq; bestQ == nil || s < bestSeq {
			bestKey, bestQ, bestSeq = key, q, s
		}
	}
	if bestQ == nil {
		return Message{}, false
	}
	st.WildcardPops.Inc()
	return mb.popFrom(bestKey, bestQ), true
}

// Run starts n procs executing body and drives them to completion under the
// virtual clock. It returns the maximum virtual finish time across procs.
// Run panics if the procs deadlock (all blocked, none runnable) or if any
// proc body panics (the original panic value is re-raised); either way every
// proc is unwound first, running its body's deferred calls.
func (e *Engine) Run(n int, body func(p *Proc)) float64 {
	if n <= 0 {
		panic("sim: Run needs n > 0 procs")
	}
	if e.stopped {
		panic("sim: engine already used; create a new Engine per Run")
	}
	e.stopped = true
	e.procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		e.procs[i] = &Proc{
			id:     i,
			engine: e,
			state:  stateReady,
			resume: make(chan struct{}),
			rng:    rand.New(rand.NewSource(e.cfg.Seed*1000003 + int64(i))),
			slow:   1,
		}
		if e.cfg.Perturber != nil {
			if s := e.cfg.Perturber.ComputeScale(i); s > 1 {
				e.procs[i].slow = s
			}
		}
	}
	done := 0
	for _, p := range e.procs {
		e.ready.push(0, uint64(p.id), p)
		go func(p *Proc) {
			defer func() {
				if r := recover(); r != nil && r != any(abortPanic{}) && e.panicV == nil {
					e.panicV = fmt.Sprintf("%v\n\nproc %d stack:\n%s", r, p.id, debug.Stack())
				}
				// A finished (or crashed) proc's deferred completions must
				// never fire: cancel them here rather than leaving them live
				// against a dead rank.
				p.drainPending()
				p.state = stateDone
				e.yieldCh <- struct{}{}
			}()
			p.wait()
			body(p)
		}(p)
	}
	for {
		// Fire a receive timeout when it is strictly the earliest event the
		// engine could schedule (runnable procs win ties; see timeout.go).
		if at, ok := e.peekTimeout(); ok && (len(e.ready) == 0 || at < e.ready[0].at) {
			e.fireTimeout()
			continue
		}
		if len(e.ready) == 0 {
			if done == n {
				break
			}
			report := "sim: deadlock\n" + e.describeStates()
			e.abort()
			panic(report)
		}
		if d := uint64(len(e.ready)); d > e.stats.MaxReadyDepth {
			e.stats.MaxReadyDepth = d
		}
		top := e.ready.pop()
		next := top.v
		next.state = stateRunning
		if top.at > next.now {
			next.now = top.at
		}
		e.stats.Resumes.Inc()
		next.resume <- struct{}{}
		<-e.yieldCh
		if e.panicV != nil {
			e.abort()
			panic(e.panicV)
		}
		if next.state == stateDone {
			done++
		}
	}
	var max float64
	for _, p := range e.procs {
		if p.now > max {
			max = p.now
		}
	}
	return max
}

// abort unwinds every unfinished proc of a failed run, in id order: each is
// resumed into an abortPanic, so its body's deferred calls run and its
// goroutine exits instead of staying parked forever. A deferred call that
// blocks again is unwound the same way (see yield).
func (e *Engine) abort() {
	e.aborting = true
	for _, p := range e.procs {
		if p.state != stateDone {
			p.resume <- struct{}{}
			<-e.yieldCh
		}
	}
}

// describeStates reports every unfinished proc of a deadlocked run. Each is
// parked in a plain Recv: Sync leaves its caller runnable, and an armed
// RecvUntil watchdog always fires before the engine declares a deadlock.
func (e *Engine) describeStates() string {
	var b strings.Builder
	for _, p := range e.procs {
		if p.state != stateDone {
			fmt.Fprintf(&b, "  proc %d: t=%.9f blocked on Recv(src=%d, tag=%d) (mailbox %d msgs)\n",
				p.id, p.now, p.pending.src, p.pending.tag, p.mb.count)
		}
	}
	return b.String()
}

// MinClock returns the minimum virtual clock across all procs. Because proc
// clocks never move backwards, the value is a nondecreasing lower bound on
// the time of every future event — a safe watermark for Resource.Trim.
func (e *Engine) MinClock() float64 {
	min := 0.0
	for i, p := range e.procs {
		if i == 0 || p.now < min {
			min = p.now
		}
	}
	return min
}

// ID returns the proc's rank in [0, n).
func (p *Proc) ID() int { return p.id }

// Now returns the proc's virtual clock in seconds.
func (p *Proc) Now() float64 { return p.now }

// MinClock returns the engine-wide minimum proc clock (see Engine.MinClock).
func (p *Proc) MinClock() float64 { return p.engine.MinClock() }

// Rand returns the proc's deterministic random number generator.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Advance moves the proc's clock forward by d seconds (d must be >= 0).
// Under a Perturber, a straggling proc's advances are stretched by its
// compute-scale factor: CPU overheads and I/O waits alike run slow, which
// is how a sick node looks to the rest of the machine.
func (p *Proc) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: proc %d Advance(%g) negative", p.id, d))
	}
	p.now += d * p.slow
	p.engine.stats.Advances.Inc()
	p.fireDue()
}

// AdvanceTo moves the clock forward to t; it is a no-op when t <= Now.
func (p *Proc) AdvanceTo(t float64) {
	if t > p.now {
		p.now = t
		p.engine.stats.Advances.Inc()
	}
	p.fireDue()
}

// yield parks the proc and returns control to the engine loop until resumed.
// A proc of a failed run is never parked again: it unwinds at once.
func (p *Proc) yield() {
	if p.engine.aborting {
		panic(abortPanic{})
	}
	p.engine.yieldCh <- struct{}{}
	p.wait()
}

// wait blocks until the engine resumes the proc, then unwinds it if the
// engine is aborting a failed run.
func (p *Proc) wait() {
	<-p.resume
	if p.engine.aborting {
		panic(abortPanic{})
	}
}

// Sync is a pure scheduling point: it parks the proc (still runnable at its
// current clock) and lets the engine resume whichever proc has the smallest
// clock. Call it before acquiring shared resources so bookings happen in
// global virtual-time order. Provided senders never use arrival times before
// their own clocks, no proc can be resumed at a time earlier than a proc
// that already passed a Sync point. When the caller is already the
// earliest-clock runnable proc, Sync returns without a context switch.
func (p *Proc) Sync() {
	e := p.engine
	if len(e.ready) == 0 || p.now < e.ready[0].at ||
		(p.now == e.ready[0].at && uint64(p.id) < e.ready[0].tie) {
		return // already first in virtual-time order
	}
	p.state = stateReady
	e.ready.push(p.now, uint64(p.id), p)
	p.yield()
}

// Send deposits a message for proc dst with the given arrival time. It does
// not advance the sender's clock; higher layers account for transmit costs
// before computing arrival. Send never blocks (eager buffering).
//
// Ownership: the payload is handed off to the runtime until the receiver's
// Recv returns it; senders must not mutate a payload after Send.
func (p *Proc) Send(dst, tag int, payload any, arrival float64) {
	e := p.engine
	if dst < 0 || dst >= len(e.procs) {
		panic(fmt.Sprintf("sim: proc %d Send to invalid dst %d", p.id, dst))
	}
	e.seq++
	e.stats.Sends.Inc()
	if e.cfg.Perturber != nil {
		// Delivery jitter only ever delays a message, so the Sync-ordering
		// invariant (arrival >= sender clock) is preserved.
		if d := e.cfg.Perturber.DeliveryDelay(p.id, dst, arrival, e.frng); d > 0 {
			arrival += d
			e.stats.Perturbed.Inc()
		}
	}
	m := Message{Src: p.id, Tag: tag, Payload: payload, Arrival: arrival, seq: e.seq}
	q := e.procs[dst]
	q.mb.put(m)
	if q.state == stateBlocked && q.pending.matches(&m) {
		at := q.now
		if m.Arrival > q.deadline {
			// The waiter's watchdog expires before this message arrives:
			// wake it at the deadline, empty-handed (its receive rejects
			// the late head).
			at = q.deadline
			e.stats.Timeouts.Inc()
		} else if m.Arrival > at {
			at = m.Arrival
		}
		e.wake(q, at)
	}
}

// wake makes a blocked proc runnable at virtual time at. It is the only
// way out of a blocked receive, so it also retires the proc's armed
// deadline, if any.
func (e *Engine) wake(p *Proc, at float64) {
	p.state = stateReady
	p.dlGen++
	e.ready.push(at, uint64(p.id), p)
}

func (s *recvSpec) matches(m *Message) bool {
	return (s.src == AnySource || s.src == m.Src) &&
		(s.tag == AnyTag || s.tag == m.Tag)
}

// Recv blocks (in virtual time) until a message matching src and tag is
// available, then removes and returns it. src may be AnySource and tag may
// be AnyTag. Messages from the same source with the same tag are delivered
// in send order; a wildcard receive takes the earliest-deposited matching
// message. The proc's clock advances to at least the arrival time.
//
// Ownership: the returned payload belongs to the receiver; the sender
// relinquished it at Send time.
func (p *Proc) Recv(src, tag int) Message {
	m, _ := p.recv(recvSpec{src: src, tag: tag}, noDeadline)
	return m
}

// noDeadline is Recv's deadline: it arms no watchdog and never expires.
var noDeadline = math.Inf(1)

// recv is the one blocking receive behind Recv and RecvUntil. It delivers
// the earliest matching message that arrives by deadline, advancing the
// clock to its arrival; otherwise it parks the proc until a Send or the
// watchdog wakes it. Once the clock has reached the deadline with nothing
// delivered it returns false. Recv passes noDeadline and arms no watchdog;
// a finite deadline needs an exact (src, tag).
func (p *Proc) recv(spec recvSpec, deadline float64) (Message, bool) {
	if deadline != noDeadline && (spec.src == AnySource || spec.tag == AnyTag) {
		panic(fmt.Sprintf("sim: proc %d RecvUntil with wildcard (src=%d, tag=%d)", p.id, spec.src, spec.tag))
	}
	e := p.engine
	for {
		if m, ok := p.mb.take(spec, deadline, &e.stats); ok {
			if m.Arrival > p.now {
				p.now = m.Arrival
			}
			p.fireDue()
			e.stats.Recvs.Inc()
			return m, true
		}
		if p.now >= deadline {
			p.fireDue()
			return Message{}, false
		}
		p.pending = spec
		p.deadline = deadline
		p.state = stateBlocked
		if deadline != noDeadline {
			e.dl.push(deadline, uint64(p.id), armed{p, p.dlGen})
		}
		p.yield()
	}
}

// Resource models a shared device (NIC, OST) that serves one request at a
// time. Bookings are kept in a merged interval ledger; Acquire books the
// earliest gap at or after the requested time. All access happens from the
// single running proc, so no locking is needed.
type Resource struct {
	name        string
	busy        []interval // sorted by start, non-overlapping, merged
	trimmedBusy float64    // booked time already dropped by Trim
}

type interval struct{ start, end float64 }

// NewResource creates a named resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Acquire books dur seconds of exclusive use starting no earlier than at,
// returning the booked [start, end) window. dur must be >= 0; a zero-length
// booking returns the earliest instant >= at not inside a busy interval.
func (r *Resource) Acquire(at, dur float64) (start, end float64) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: resource %s Acquire dur %g < 0", r.name, dur))
	}
	start = at
	// First interval that could constrain us: the one with end > at,
	// including an interval that contains at.
	i := sort.Search(len(r.busy), func(k int) bool { return r.busy[k].end > at })
	for ; i < len(r.busy); i++ {
		if r.busy[i].start >= start+dur {
			break // gap before interval i fits
		}
		if r.busy[i].end > start {
			start = r.busy[i].end
		}
	}
	end = start + dur
	r.insert(interval{start, end})
	return start, end
}

// NextFree reports the earliest instant >= at with no booking in progress.
func (r *Resource) NextFree(at float64) float64 {
	i := sort.Search(len(r.busy), func(k int) bool { return r.busy[k].end > at })
	if i < len(r.busy) && r.busy[i].start <= at {
		return r.busy[i].end
	}
	return at
}

// BusyTime reports the total booked duration on the resource, including
// intervals already dropped by Trim.
func (r *Resource) BusyTime() float64 {
	t := r.trimmedBusy
	for _, iv := range r.busy {
		t += iv.end - iv.start
	}
	return t
}

// NumIntervals reports the current ledger length (diagnostics and tests).
func (r *Resource) NumIntervals() int { return len(r.busy) }

// Trim drops ledger intervals that end at or before watermark, keeping the
// ledger compact over long runs. It is safe — bit-identical results — as
// long as no future Acquire or NextFree uses an `at` below watermark; the
// engine's MinClock is such a watermark for well-behaved callers (bookings
// are always made at or after the calling proc's clock). Trimmed time still
// counts toward BusyTime.
func (r *Resource) Trim(watermark float64) {
	i := 0
	for i < len(r.busy) && r.busy[i].end <= watermark {
		r.trimmedBusy += r.busy[i].end - r.busy[i].start
		i++
	}
	if i > 0 {
		n := copy(r.busy, r.busy[i:])
		r.busy = r.busy[:n]
	}
}

func (r *Resource) insert(iv interval) {
	i := sort.Search(len(r.busy), func(k int) bool { return r.busy[k].start >= iv.start })
	r.busy = append(r.busy, interval{})
	copy(r.busy[i+1:], r.busy[i:])
	r.busy[i] = iv
	// Merge with neighbors that touch (zero-length gaps collapse), eagerly,
	// so adjacent bookings never fragment the ledger.
	if i > 0 && r.busy[i-1].end >= r.busy[i].start {
		r.busy[i-1].end = maxf(r.busy[i-1].end, r.busy[i].end)
		r.busy = append(r.busy[:i], r.busy[i+1:]...)
		i--
	}
	for i+1 < len(r.busy) && r.busy[i].end >= r.busy[i+1].start {
		r.busy[i].end = maxf(r.busy[i].end, r.busy[i+1].end)
		r.busy = append(r.busy[:i+1], r.busy[i+2:]...)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Stats reports scheduler and mailbox counters for performance diagnosis.
type Stats struct {
	Resumes         perf.Counter // proc resumptions (context switches)
	Sends           perf.Counter // messages deposited
	Recvs           perf.Counter // messages delivered
	ExactPops       perf.Counter // receives served by the exact (src,tag) index
	WildcardPops    perf.Counter // receives served by the wildcard head scan
	WildcardScanned perf.Counter // queue heads examined by wildcard scans
	Perturbed       perf.Counter // messages delayed by the fault perturber
	Timeouts        perf.Counter // RecvUntil watchdogs that fired empty-handed
	Advances        perf.Counter // clock advances (Advance + forward AdvanceTo)
	MaxReadyDepth   uint64       // high-water mark of the ready queue
}

// Events returns the total scheduler-visible event count (resumes plus
// message deposits and deliveries) — the numerator of events/sec.
func (s Stats) Events() uint64 {
	return s.Resumes.Value() + s.Sends.Value() + s.Recvs.Value()
}

// Stats returns the engine's counters (valid after Run).
func (e *Engine) Stats() Stats { return e.stats }
