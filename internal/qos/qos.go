// Package qos implements server-side admission policies for shared storage
// services (DESIGN.md §16). When several jobs hammer one set of OSTs, the
// order requests reach each target decides who eats the queueing: plain FIFO
// lets a bursty job fill a target's ledger solid and every later arrival —
// however small its own demand — waits behind the backlog.
//
// A policy cannot reorder work the simulation has already booked (the
// interval ledgers in internal/sim are append-only in virtual time), so QoS
// acts at admission: Admit shapes the earliest service start of each request
// before the target's Resource.Acquire books it. Acquire takes the earliest
// gap at or after the admitted time, so delaying an over-share job's
// requests leaves ledger gaps that other jobs' requests — admitted at their
// own, earlier times — then fill. The effect is the same as a fair queue in
// front of the device, expressed in a form the deterministic engine can
// replay bit-identically: every storage operation begins with an engine
// sync, so Admit runs in engine-serialized order, and policies draw no
// randomness.
//
// Three policies ship, mirroring the classic service-loop choices:
//
//   - FIFO: admission is the identity. The baseline every interference
//     number is quoted against; still useful armed, because it keeps the
//     per-job usage accounting without shaping anything.
//   - Fair share: per-(target, job) start-time fair queueing. Job j's next
//     request on a target may not start before its previous one plus
//     n·service, where n is the number of jobs recently active on that
//     target — each of n contenders is admitted at roughly a 1/n share.
//     A job alone on a target (n = 1) is spaced by exactly its own service
//     time, which the device ledger would impose anyway, so isolated runs
//     are unshaped.
//   - Token bucket: per-(target, job) budget of service-seconds refilled at
//     Rate and capped at Burst. A request costing more than the available
//     tokens waits for the deficit to accrue. This is the hard-reservation
//     shape: a hog is throttled even when the device is idle.
package qos

import (
	"fmt"
	"sort"
)

// Policy is a server-side admission policy. Admit is called once per
// request, in engine-serialized order, with the request's target id, the
// issuing job, the earliest possible service start `at`, and the request's
// estimated service cost `svc` (seconds). It returns the admitted start
// time, >= at, and records the request in the per-job usage ledger.
//
// Implementations must be deterministic: no clocks, no randomness, state
// mutated only inside Admit.
type Policy interface {
	Name() string
	Admit(target, job int, at, svc float64) float64
	// Usage returns a copy of the per-job accounting: requests admitted,
	// service seconds carried, and admission delay added, summed over all
	// targets. Single-job runs degrade to one "job 0" bucket.
	Usage() map[int]JobUsage
}

// JobUsage aggregates one job's admitted work under a policy.
type JobUsage struct {
	Requests    int64   // requests admitted
	ServiceSecs float64 // summed estimated service cost
	DelaySecs   float64 // summed admission delay (start - arrival)
}

// usage is the shared per-job ledger embedded by every policy.
type usage struct {
	jobs map[int]*JobUsage
}

func (u *usage) note(job int, svc, delay float64) {
	if u.jobs == nil {
		u.jobs = make(map[int]*JobUsage)
	}
	j := u.jobs[job]
	if j == nil {
		j = &JobUsage{}
		u.jobs[job] = j
	}
	j.Requests++
	j.ServiceSecs += svc
	j.DelaySecs += delay
}

func (u *usage) Usage() map[int]JobUsage {
	out := make(map[int]JobUsage, len(u.jobs))
	for id, j := range u.jobs {
		out[id] = *j
	}
	return out
}

// FIFO admits every request at its arrival time — the unshaped baseline,
// with per-job accounting.
type FIFO struct{ usage }

// NewFIFO returns the identity policy.
func NewFIFO() *FIFO { return &FIFO{} }

func (p *FIFO) Name() string { return "fifo" }

func (p *FIFO) Admit(target, job int, at, svc float64) float64 {
	p.note(job, svc, 0)
	return at
}

// FairShare is per-target start-time fair queueing: each job's requests on
// a target are spaced by n·svc, where n is the number of jobs seen on that
// target within Window seconds of the current request. With one active job
// the spacing equals the job's own service time — the pace the device would
// impose anyway — so shaping engages only under contention.
type FairShare struct {
	usage
	// Window is the activity horizon: a job counts as a contender on a
	// target while its last request there is within Window seconds.
	Window float64
	tgts   map[int]*fairTarget
}

type fairTarget struct {
	jobs map[int]*fairJob
}

type fairJob struct {
	ftag float64 // earliest admission of the job's next request here
	last float64 // arrival time of the job's latest request here
}

// DefaultFairWindow spans a few dozen request services at the default OST
// overhead — long enough to bridge a job's exchange phases, short enough
// that a departed job stops counting within one collective call.
const DefaultFairWindow = 0.05

// NewFairShare returns a fair-share policy; window <= 0 takes the default.
func NewFairShare(window float64) *FairShare {
	if window <= 0 {
		window = DefaultFairWindow
	}
	return &FairShare{Window: window, tgts: make(map[int]*fairTarget)}
}

func (p *FairShare) Name() string { return "fair" }

func (p *FairShare) Admit(target, job int, at, svc float64) float64 {
	t := p.tgts[target]
	if t == nil {
		t = &fairTarget{jobs: make(map[int]*fairJob)}
		p.tgts[target] = t
	}
	j := t.jobs[job]
	if j == nil {
		j = &fairJob{ftag: at, last: at}
		t.jobs[job] = j
	}
	// Count contenders: jobs whose latest request on this target is recent.
	// The count is order-independent, so map iteration is safe.
	n := 1 // this job
	for id, o := range t.jobs {
		if id != job && at-o.last <= p.Window {
			n++
		}
	}
	start := at
	if j.ftag > start {
		start = j.ftag
	}
	j.ftag = start + float64(n)*svc
	j.last = at
	p.note(job, svc, start-at)
	return start
}

// TokenBucket throttles each (target, job) pair to Rate service-seconds per
// second with bursts up to Burst seconds — a hard per-job reservation on
// every target, enforced even when the device is idle.
type TokenBucket struct {
	usage
	Rate  float64 // service-seconds accrued per second
	Burst float64 // token cap, in service-seconds
	tgts  map[int]map[int]*bucket
}

type bucket struct {
	tokens float64
	last   float64
}

// Default token-bucket shape: half a target's capacity per job, with a
// burst of a few large-request services.
const (
	DefaultBucketRate  = 0.5
	DefaultBucketBurst = 0.05
)

// NewTokenBucket returns a token-bucket policy; non-positive parameters
// take the defaults.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 {
		rate = DefaultBucketRate
	}
	if burst <= 0 {
		burst = DefaultBucketBurst
	}
	return &TokenBucket{Rate: rate, Burst: burst, tgts: make(map[int]map[int]*bucket)}
}

func (p *TokenBucket) Name() string { return "tbucket" }

func (p *TokenBucket) Admit(target, job int, at, svc float64) float64 {
	t := p.tgts[target]
	if t == nil {
		t = make(map[int]*bucket)
		p.tgts[target] = t
	}
	b := t[job]
	if b == nil {
		b = &bucket{tokens: p.Burst, last: at}
		t[job] = b
	}
	if at > b.last {
		b.tokens += (at - b.last) * p.Rate
		if b.tokens > p.Burst {
			b.tokens = p.Burst
		}
		b.last = at
	}
	start := at
	if svc > b.tokens {
		start = at + (svc-b.tokens)/p.Rate
		b.tokens = 0
		b.last = start
	} else {
		b.tokens -= svc
	}
	p.note(job, svc, start-at)
	return start
}

// Policy name constants — the spellings Names lists and New accepts.
const (
	NameFIFO        = "fifo"
	NameFairShare   = "fair"
	NameTokenBucket = "tbucket"
)

// Names lists the policy spellings New accepts, in report order.
func Names() []string { return []string{NameFIFO, NameFairShare, NameTokenBucket} }

// New builds a policy from its CLI spelling with default parameters.
func New(name string) (Policy, error) {
	switch name {
	case "", "fifo":
		return NewFIFO(), nil
	case "fair":
		return NewFairShare(0), nil
	case "tbucket":
		return NewTokenBucket(0, 0), nil
	default:
		return nil, fmt.Errorf("qos: unknown policy %q (have %v)", name, Names())
	}
}

// JobIDs returns the sorted job ids present in a usage map — report helpers
// need a stable order.
func JobIDs(m map[int]JobUsage) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
