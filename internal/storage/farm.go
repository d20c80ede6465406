package storage

import (
	"math/rand"
	"strconv"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// FarmConfig is the hardware of a target farm. The lustre model's OSTs and
// the pvfs model's list-I/O servers are the same machine, so a backend
// comparison isolates the protocol.
type FarmConfig struct {
	Targets         int     // storage targets (OSTs, I/O servers)
	Bandwidth       float64 // bytes/second each target sustains
	RequestOverhead float64 // seconds of fixed cost per request (seek, service)
	OpenCost        float64 // seconds of metadata-server time per open
	CostScale       float64 // virtual bytes per real byte (default 1)
	// Jitter is the relative service-time noise per request (0.1 = ±10%),
	// drawn deterministically from Seed. Shared storage is never
	// noise-free; the noise is what lets independent ParColl subgroups
	// drift apart instead of hammering the same stripe in lockstep, and it
	// makes straggler-waiting grow with synchronization-group size.
	Jitter float64
	Seed   int64
	// Faults degrades and fails targets per the plan; each backend reads
	// the parts of it that apply to its targets. Every effect is a pure
	// function of (target, virtual time, the farm's RNG), so determinism
	// holds. Injected request failures are absorbed by the retry engine
	// (capped exponential backoff plus a per-target circuit breaker) and
	// surface as typed *recovery.TargetError only when budget-exhausted.
	Faults *fault.Plan
}

// DefaultFarmConfig approximates the paper's test file system: 72 OSTs
// behind 4 Gbps Fibre Channel, about 140 MB/s per target with
// sub-millisecond request overhead.
func DefaultFarmConfig() FarmConfig {
	return FarmConfig{
		Targets:         72,
		Bandwidth:       1.4e8,
		RequestOverhead: 8e-4,
		OpenCost:        5e-5,
		CostScale:       1,
		Jitter:          0.1,
		Seed:            1,
	}
}

// FailFunc is a fault plan's verdict on one attempt against a target
// (fault.Plan.OSTErrorAt or ServerErrorAt); it may draw from rng.
type FailFunc func(target int, at float64, rng *rand.Rand) bool

// Farm is the machinery a target farm's backends share: the targets, the
// metadata server that serializes opens, the files, one RNG, the per-target
// counters, the retry engine, the integrity ledger and the admission
// policy. A backend embeds it and keeps only its cost model and Submit.
type Farm struct {
	Cfg FarmConfig
	// Rng is the farm's one generator: jitter, the backend's own draws and
	// the fault verdicts consume it in engine order.
	Rng *rand.Rand
	// Retrier is armed only when the farm was built with a fail predicate,
	// so a healthy run never touches it.
	Retrier *recovery.Retrier

	layer     string
	targets   []*sim.Resource
	mds       *sim.Resource
	files     map[string]*Object
	stats     []TargetStat
	fails     FailFunc
	ledger    *Ledger
	qos       qos.Policy
	sinceTrim int       // requests since the last ledger compaction
	per       []float64 // Spread's per-target scratch
}

// NewFarm builds the farm of a backend whose errors name targets as
// layer/kind ("lustre"/"OST"). fails, when non-nil, arms the retry engine.
func NewFarm(cfg FarmConfig, layer, kind string, fails FailFunc) *Farm {
	if cfg.Targets <= 0 {
		panic(layer + ": need at least one target")
	}
	if cfg.CostScale == 0 {
		cfg.CostScale = 1
	}
	fm := &Farm{
		Cfg:     cfg,
		Rng:     rand.New(rand.NewSource(cfg.Seed*7919 + 13)),
		layer:   layer,
		targets: make([]*sim.Resource, cfg.Targets),
		mds:     sim.NewResource("mds"),
		files:   make(map[string]*Object),
		stats:   make([]TargetStat, cfg.Targets),
		fails:   fails,
		per:     make([]float64, cfg.Targets),
	}
	for i := range fm.targets {
		fm.targets[i] = sim.NewResource(kind + strconv.Itoa(i))
	}
	if fails != nil {
		fm.Retrier = recovery.NewRetrier(layer, kind)
	}
	return fm
}

// Open opens (creating if necessary) the named file. The stripe layout
// applies only on create, like Lustre's, and its count is clamped to the
// farm. Open costs metadata-server time, which serializes when many ranks
// open at once.
func (fm *Farm) Open(r *mpi.Rank, name string, stripe Stripe) *Object {
	if stripe.Count <= 0 || stripe.Size <= 0 {
		panic(fm.layer + ": invalid stripe layout")
	}
	stripe.Count = min(stripe.Count, fm.Cfg.Targets)
	r.P.Sync()
	_, end := fm.mds.Acquire(r.Now(), fm.Cfg.OpenCost)
	r.ChargeIO(end - r.Now())
	o := fm.files[name]
	if o == nil {
		o = &Object{farm: fm, name: name, stripe: stripe, data: NewByteStore()}
		fm.files[name] = o
	}
	return o
}

// Drain returns nil at once: a farm buffers nothing — every write is
// durable on its targets by the time its completion is booked.
func (fm *Farm) Drain(r *mpi.Rank) error { return nil }

// Stats returns a copy of the per-target service counters.
func (fm *Farm) Stats() []TargetStat { return append([]TargetStat(nil), fm.stats...) }

// Stat returns target t's live counters, for the backend's own penalties.
func (fm *Farm) Stat(t int) *TargetStat { return &fm.stats[t] }

// RetryStats returns the retry engine's counters (all zero without one).
func (fm *Farm) RetryStats() recovery.RetryStats { return fm.Retrier.Stats() }

// RetryStatsByJob returns the retry counters keyed by the issuing rank's
// JobID — empty on healthy runs, one job-0 bucket for single-job tools.
func (fm *Farm) RetryStatsByJob() map[int]recovery.RetryStats { return fm.Retrier.StatsByJob() }

// SetQoS installs a server-side admission policy (nil detaches). The nil
// path is branch-identical to pre-QoS builds; see DESIGN.md §16.
func (fm *Farm) SetQoS(p qos.Policy) { fm.qos = p }

// SetLedger attaches an integrity ledger (nil detaches): every subsequent
// store records a seeded digest of the written extent at issue time.
// Recording is free in virtual time and draw-free.
func (fm *Farm) SetLedger(l *Ledger) { fm.ledger = l }

// Params returns the farm's protocol-relevant properties.
func (fm *Farm) Params(listIO bool) Params {
	return Params{CostScale: fm.Cfg.CostScale, ListIO: listIO, Injecting: fm.Retrier != nil}
}

// noise returns the multiplicative service-time factor for one request.
func (fm *Farm) noise() float64 {
	if fm.Cfg.Jitter == 0 {
		return 1
	}
	return 1 + fm.Cfg.Jitter*(2*fm.Rng.Float64()-1)
}

// Svc counts one request of virt bytes on target t and returns its base
// service time — overhead plus bytes over bandwidth, jittered.
func (fm *Farm) Svc(t int, virt float64) float64 {
	st := &fm.stats[t]
	st.Requests++
	st.Bytes += int64(virt)
	return (fm.Cfg.RequestOverhead + virt/fm.Cfg.Bandwidth) * fm.noise()
}

// Book serves svc seconds on target t from virtual time at: the admission
// policy, keyed by the issuing job, shapes the start, then the target's
// ledger books it. It returns the queue wait behind earlier bookings and
// the completion.
func (fm *Farm) Book(t, job int, at, svc float64) (wait, end float64) {
	fm.stats[t].BusySecs += svc
	if fm.qos != nil {
		at = fm.qos.Admit(t, job, at, svc)
	}
	start, end := fm.targets[t].Acquire(at, svc)
	return start - at, end
}

// Retry carries one request on target t through the retry engine. Each
// attempt asks the fault plan whether it fails; a failed attempt books only
// the jittered request overhead (the RPC that came back with an error still
// occupied the target) and counts an error, a served one runs serve.
func (fm *Farm) Retry(t, job int, at float64, serve func(at float64) float64) (float64, error) {
	return fm.Retrier.Do(t, job, at, func(at float64) (float64, bool) {
		if fm.fails(t, at, fm.Rng) {
			st := &fm.stats[t]
			st.Errors++
			cost := fm.Cfg.RequestOverhead * fm.noise()
			st.BusySecs += cost
			_, end := fm.targets[t].Acquire(at, cost)
			return end, true
		}
		return serve(at), false
	})
}

// trimEvery is how many requests pass between ledger compactions.
const trimEvery = 512

// Trim counts one request and, every trimEvery, drops fully-past intervals
// from the target and MDS ledgers so fragmented bookings cannot grow them
// without bound over long runs. The watermark is the engine-wide minimum
// proc clock: every future booking starts at or after it, so trimming is
// invisible to results (see sim.Resource.Trim).
func (fm *Farm) Trim(r *mpi.Rank) {
	fm.sinceTrim++
	if fm.sinceTrim < trimEvery {
		return
	}
	fm.sinceTrim = 0
	w := r.P.MinClock()
	for _, t := range fm.targets {
		t.Trim(w)
	}
	fm.mds.Trim(w)
}

// Object is one file of a farm: its layout and its bytes, stored for real
// (sparse page map) so tests can verify byte-exact read-after-write. A
// backend's handle embeds it and adds Submit.
type Object struct {
	farm   *Farm
	name   string
	stripe Stripe
	data   *ByteStore
}

// Stripe returns the file's stripe layout.
func (o *Object) Stripe() Stripe { return o.stripe }

// Size returns the file length (highest byte written so far).
func (o *Object) Size() int64 { return o.data.Size() }

// Name returns the file's name.
func (o *Object) Name() string { return o.name }

// Peek returns the file's bytes in [off, off+n) with no simulated time cost.
func (o *Object) Peek(off, n int64) []byte { return o.data.Load(off, n) }

// Contents returns the file's bytes in [0, Size) at no time cost.
func (o *Object) Contents() []byte { return o.data.Load(0, o.data.Size()) }

// Punch zeroes any stored bytes in [off, off+n) without growing the file or
// charging time — the staging tier's durability-revocation hook. The
// integrity ledger is deliberately not updated: it keeps the acknowledged
// contents, which re-dump must restore.
func (o *Object) Punch(off, n int64) { o.data.Zero(off, n) }

// Store commits data at off and, when an integrity ledger is attached,
// records the extent's issue-time digest. Zero time cost.
func (o *Object) Store(off int64, data []byte) {
	o.data.Store(off, data)
	if o.farm.ledger != nil {
		o.farm.ledger.Record(o.name, off, data)
	}
}

// Chunks splits [off, off+n) at stripe-unit boundaries and calls fn with
// each chunk's offset, length and serving target.
func (o *Object) Chunks(off, n int64, fn func(off, n int64, target int)) {
	s := o.stripe
	for n > 0 {
		unit := off / s.Size
		l := min((unit+1)*s.Size-off, n)
		fn(off, l, int(unit%int64(s.Count)))
		off += l
		n -= l
	}
}

// Spread sums exts' virtual bytes onto the targets they stripe over. The
// result is the farm's scratch, indexed by target and valid until the next
// Spread; a target no extent touches reads zero.
func (o *Object) Spread(exts []Extent) []float64 {
	per, scale := o.farm.per, o.farm.Cfg.CostScale
	clear(per)
	for _, e := range exts {
		o.Chunks(e.Off, e.Len, func(_, l int64, t int) { per[t] += float64(l) * scale })
	}
	return per
}
