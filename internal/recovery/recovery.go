// Package recovery holds the fault-tolerance machinery the storage backends
// share (one retry loop with a fixed backoff schedule and per-target circuit
// breakers, and the typed error it surfaces) plus the recovery counters of
// the storage and mpiio collective layers. It is pure policy: virtual-time
// arithmetic and small state machines with no dependency on the simulator,
// so every piece is unit-testable in isolation.
//
// Determinism contract (same as package fault): nothing here draws random
// numbers. The retry schedule and the breaker rule are fixed constants, so
// a retry is pure virtual-time arithmetic and healthy runs, which never
// retry, are bit-identical with or without the machinery installed.
package recovery

import (
	"fmt"

	"repro/internal/obs"
)

// --- retry/backoff ----------------------------------------------------------

// The one retry schedule: the wait after a request's k-th failed attempt is
// retryBase*2^(k-1) seconds, capped at retryCap, and a request gets
// retryAttempts attempts in all. It is jitter-free, so the scenario goldens
// stay exact.
const (
	retryBase     = 1e-4 // delay before the first retry, seconds
	retryCap      = 5e-3 // upper bound on any single delay, seconds
	retryAttempts = 6    // total attempts including the first
)

// delay returns the wait before retry number `retry` (1 = after the first
// failure).
func delay(retry int) float64 {
	d := retryBase
	for i := 1; i < retry && d < retryCap; i++ {
		d *= 2
	}
	return min(d, retryCap)
}

// --- the retry loop ---------------------------------------------------------

// Retrier is one storage layer's retry engine: the fixed backoff schedule, a
// circuit breaker per target, and the retry counters, in aggregate and per
// issuing job. Backends arm one only when their fault plan injects errors,
// so a healthy run never touches it; the read-only methods accept a nil
// Retrier and report zeroes.
type Retrier struct {
	layer, kind string // TargetError's vocabulary
	brk         *BreakerSet
	stats       RetryStats
	byJob       map[int]*RetryStats

	// ObsRetries and ObsOpens, when set, count retries and breaker trips as
	// they happen.
	ObsRetries, ObsOpens *obs.Counter
}

// NewRetrier arms a retry engine whose typed errors name targets as
// layer/kind ("lustre"/"OST").
func NewRetrier(layer, kind string) *Retrier {
	return &Retrier{layer: layer, kind: kind, brk: NewBreakerSet()}
}

// Breaker returns the target's circuit breaker.
func (e *Retrier) Breaker(target int) *Breaker { return e.brk.Get(target) }

// Do carries one request against target, issued by job, from virtual time
// at. Each attempt first waits out the target's breaker hold-off (an open
// breaker stalls the request until its half-open probe), then runs attempt,
// which consults the fault plan and books the attempt: a served attempt
// returns its completion, a failed one the time its error came back (the
// failing RPC still occupied the target). A failure feeds the breaker and,
// unless the attempt budget is spent, backs off per the schedule and goes
// again. Exhaustion surfaces as a typed *TargetError with the clock already
// past every failed attempt: failures cost time even when they do not cost
// correctness.
func (e *Retrier) Do(target, job int, at float64, attempt func(at float64) (end float64, failed bool)) (float64, error) {
	brk := e.brk.Get(target)
	jr := e.byJob[job]
	if jr == nil {
		if e.byJob == nil {
			e.byJob = make(map[int]*RetryStats)
		}
		jr = &RetryStats{}
		e.byJob[job] = jr
	}
	for attempts := 1; ; attempts++ {
		if h := brk.HoldOff(at); h > 0 {
			at += h
			e.stats.BackoffSecs += h
			jr.BackoffSecs += h
		}
		e.stats.Attempts++
		jr.Attempts++
		if attempts > 1 {
			e.stats.Retries++
			jr.Retries++
			if e.ObsRetries != nil {
				e.ObsRetries.Inc()
			}
		}
		end, failed := attempt(at)
		if !failed {
			brk.Success()
			return end, nil
		}
		at = end
		e.stats.Failures++
		jr.Failures++
		opens := brk.Opens
		brk.Failure(at)
		if n := brk.Opens - opens; n > 0 {
			e.stats.BreakerOpens += n
			jr.BreakerOpens += n
			if e.ObsOpens != nil {
				e.ObsOpens.Add(n)
			}
		}
		if attempts >= retryAttempts {
			e.stats.Exhausted++
			jr.Exhausted++
			return at, &TargetError{Layer: e.layer, Kind: e.kind, Target: target, Attempts: attempts}
		}
		d := delay(attempts)
		at += d
		e.stats.BackoffSecs += d
		jr.BackoffSecs += d
	}
}

// Stats returns the aggregate counters (zero for a nil Retrier).
func (e *Retrier) Stats() RetryStats {
	if e == nil {
		return RetryStats{}
	}
	return e.stats
}

// StatsByJob returns a copy of the counters keyed by issuing job: only jobs
// that recorded events, so a healthy run's map is empty.
func (e *Retrier) StatsByJob() map[int]RetryStats {
	out := make(map[int]RetryStats)
	if e != nil {
		for id, s := range e.byJob {
			out[id] = *s
		}
	}
	return out
}

// --- circuit breaker --------------------------------------------------------

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState uint8

const (
	BreakerClosed   BreakerState = iota // normal operation
	BreakerOpen                         // tripped: hold requests off until cooldown
	BreakerHalfOpen                     // cooldown over: one probe decides
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// The one breaker rule: breakerThreshold consecutive failures trip a
// breaker, and it stays open breakerCooldown seconds before its half-open
// probe.
const (
	breakerThreshold = 4
	breakerCooldown  = 2e-3
)

// Breaker is a per-target circuit breaker in virtual time. breakerThreshold
// consecutive failures trip it open; while open, HoldOff tells the caller
// how long to stall before the breaker turns half-open; the first attempt in
// half-open state is the probe — its outcome closes the breaker or re-opens
// it for another cooldown. Single-goroutine use only (the simulator
// serializes procs), so there is no locking.
type Breaker struct {
	state    BreakerState
	fails    int
	openedAt float64
	Opens    uint64 // cumulative trips, for stats
}

// State returns the breaker's automaton state as of virtual time `at`
// (an open breaker whose cooldown has elapsed reads as half-open).
func (k *Breaker) State(at float64) BreakerState {
	if k.state == BreakerOpen && at >= k.openedAt+breakerCooldown {
		return BreakerHalfOpen
	}
	return k.state
}

// HoldOff returns how long a request arriving at `at` must stall before it
// may be attempted (0 when the breaker is closed or ready for a probe). The
// caller is expected to advance its clock by the returned amount and then
// attempt; that attempt is the half-open probe.
func (k *Breaker) HoldOff(at float64) float64 {
	if k.state != BreakerOpen {
		return 0
	}
	ready := k.openedAt + breakerCooldown
	if at >= ready {
		k.state = BreakerHalfOpen
		return 0
	}
	k.state = BreakerHalfOpen // the stalled request becomes the probe
	return ready - at
}

// Success records a served request: any state collapses back to closed.
func (k *Breaker) Success() {
	k.state = BreakerClosed
	k.fails = 0
}

// Failure records a failed request at virtual time `at`. A half-open probe
// failure re-opens immediately; in closed state the consecutive-failure
// counter trips the breaker at breakerThreshold.
func (k *Breaker) Failure(at float64) {
	if k.state == BreakerHalfOpen {
		k.state = BreakerOpen
		k.openedAt = at
		k.Opens++
		return
	}
	k.fails++
	if k.fails >= breakerThreshold {
		k.state = BreakerOpen
		k.openedAt = at
		k.fails = 0
		k.Opens++
	}
}

// --- typed errors -----------------------------------------------------------

// TargetError is the typed failure a storage layer surfaces when a request
// against one of its targets exhausted the retry budget. Every backend shares the shape; Layer and Kind name the failure domain in
// that backend's own vocabulary ("lustre"/"OST", "pvfs"/"server",
// "bb"/"node"), so error text stays layer-appropriate while callers handle
// one type.
type TargetError struct {
	Layer    string // storage layer reporting the failure
	Kind     string // the layer's noun for its failure domain
	Target   int    // the failing target id within that domain
	Attempts int    // attempts consumed before giving up
}

func (e *TargetError) Error() string {
	return fmt.Sprintf("%s: %s %d transient failure after %d attempt(s)", e.Layer, e.Kind, e.Target, e.Attempts)
}

// --- breaker sets ------------------------------------------------------------

// BreakerSet lazily allocates one Breaker per integer target id. Lustre
// OSTs, pvfs servers, and bb nodes are all independent failure domains
// wanting the same trip/cooldown machinery; a set keyed by the layer's own
// target ids lets them share it without agreeing on a global id space.
type BreakerSet struct {
	m map[int]*Breaker
}

// NewBreakerSet returns an empty set.
func NewBreakerSet() *BreakerSet { return &BreakerSet{} }

// Get returns the breaker for target, creating it closed on first use.
func (s *BreakerSet) Get(target int) *Breaker {
	if s.m == nil {
		s.m = make(map[int]*Breaker)
	}
	k := s.m[target]
	if k == nil {
		k = &Breaker{}
		s.m[target] = k
	}
	return k
}

// Opens sums the trip counts over every breaker in the set.
func (s *BreakerSet) Opens() uint64 {
	var n uint64
	for _, k := range s.m {
		n += k.Opens
	}
	return n
}

// Len reports how many targets have a breaker allocated.
func (s *BreakerSet) Len() int { return len(s.m) }

// --- recovery accounting ----------------------------------------------------

// RetryStats counts a storage layer's retry-engine work. Counters are plain
// uint64s mutated by one proc at a time under the simulator's cooperative
// schedule.
type RetryStats struct {
	Attempts     uint64  // I/O attempts issued (first tries + retries)
	Retries      uint64  // attempts beyond the first, per request
	Failures     uint64  // attempts that came back failed
	Exhausted    uint64  // requests abandoned after the full budget
	BreakerOpens uint64  // circuit-breaker trips
	BackoffSecs  float64 // virtual seconds spent in backoff + breaker holds
}

// Add accumulates o into s.
func (s *RetryStats) Add(o RetryStats) {
	s.Attempts += o.Attempts
	s.Retries += o.Retries
	s.Failures += o.Failures
	s.Exhausted += o.Exhausted
	s.BreakerOpens += o.BreakerOpens
	s.BackoffSecs += o.BackoffSecs
}

// FailoverStats counts the collective layer's recovery actions across one or
// more collective calls.
type FailoverStats struct {
	Detections    uint64  // aggregator-death detections (per rank, per call)
	Failovers     uint64  // aggregator domains re-assigned to survivors
	Reelections   uint64  // subgroups that had to elect a fresh aggregator
	Degradations  uint64  // calls degraded to independent I/O
	DetectSecs    float64 // virtual seconds from round start to detection
	RecoverSecs   float64 // virtual seconds replanning after detection
	TimeToRecover float64 // max replanning span over ranks (the TTR metric)
}
