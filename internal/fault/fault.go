// Package fault is a deterministic, seed-driven fault-injection layer for
// the simulator. A Plan declaratively describes how a run's virtual-time
// model is perturbed — per-rank compute stragglers, per-round heavy-tailed
// OS noise, degraded or transiently unavailable OSTs, and message-delivery
// jitter on the NIC path — without breaking reproducibility.
//
// Determinism contract: a Plan is pure data plus pure functions. It owns no
// random state; every probabilistic decision draws from a *rand.Rand handed
// in by the layer applying the fault (the engine's perturbation RNG for
// message delivery, the proc-local RNG for per-round noise, the file
// system's RNG for service tails). All of those generators are seeded from
// the run's seed, and the engine serializes execution, so two runs of the
// same program under the same Plan and seed produce bit-identical
// virtual-time results. A zero Plan perturbs nothing and never consumes a
// random draw, so runs under the "healthy" scenario are bit-identical to
// runs with no plan installed at all.
//
// Layer map (who applies what):
//
//	Stragglers  -> sim.Proc.Advance via the sim.Perturber hook (ComputeScale)
//	Net jitter  -> sim.Proc.Send via the sim.Perturber hook (DeliveryDelay)
//	Net.NodeBW  -> cluster.Transfer (per-node NIC bandwidth derating)
//	RoundNoise  -> mpiio round loops (RoundStall), the collective-wall probe
//	OSTs        -> lustre FS.svcTime (service scaling + downtime windows)
//	OSTFails    -> lustre FS.serve (retry engine, typed errors)
//	BBFails     -> bb Tier (staging-memory loss, write-through degradation)
//	DrainFails  -> bb Tier (drain retry/backoff, per-node breakers)
//	ServerFails -> pvfs FS (per-server retry, vectored->scalar fallback)
package fault

import (
	"math/rand"
	"sort"
)

// Straggler slows one rank's (or every rank's) local time: every Advance —
// CPU overheads and I/O waits alike — is stretched by Factor. It models a
// persistently slow node (thermal throttling, a sick disk path, an
// oversubscribed core).
type Straggler struct {
	Rank   int     // world rank; -1 applies to every rank
	Factor float64 // multiplicative slowdown, >= 1 (1 = no effect)
}

// RoundNoise injects heavy-tailed per-round compute stalls into the
// collective I/O round loop: before each round's synchronizing alltoall, an
// afflicted rank draws and, with probability Prob, stalls for Stall seconds
// (and with probability TailProb for TailStall seconds — the rare, large
// event). This is the perturbation the collective wall amplifies: a global
// protocol pays the maximum stall over all ranks every round, a partitioned
// protocol only the maximum within each subgroup.
type RoundNoise struct {
	Rank      int     // world rank; -1 applies to every rank
	Prob      float64 // per-rank per-round stall probability
	Stall     float64 // seconds added on a common stall event
	TailProb  float64 // per-rank per-round heavy-tail probability
	TailStall float64 // seconds added on a tail event
}

// OSTFault degrades one OST (or all): service times are multiplied by
// Scale, and the target is periodically unavailable — requests arriving
// inside a down window stall until it ends. Windows are
// [DownAt+k*DownEvery, DownAt+k*DownEvery+DownFor) for k = 0, 1, ...;
// DownEvery == 0 means the single window at DownAt. DownFor == 0 disables
// downtime.
type OSTFault struct {
	OST       int     // OST index; -1 applies to every OST
	Scale     float64 // service-time multiplier, >= 1 (0 and 1 = no effect)
	DownAt    float64 // start of the first unavailability window, seconds
	DownFor   float64 // window length, seconds
	DownEvery float64 // window period, seconds (0 = one-shot)
}

// NetFault perturbs message delivery. Jitter and spikes are drawn per
// message from the engine's perturbation RNG and added to the arrival time;
// NodeBWScale derates specific nodes' NIC bandwidth deterministically
// (a flaky link or a misrouted adapter).
type NetFault struct {
	JitterProb  float64 // per-message probability of a small delay
	JitterDelay float64 // maximum small delay, seconds (uniform draw)
	SpikeProb   float64 // per-message probability of a large delay spike
	SpikeDelay  float64 // spike delay, seconds (fixed)
	// NodeBWScale divides the named nodes' NIC bandwidth (2 = half speed).
	NodeBWScale map[int]float64
	// Message loss: each message is independently dropped with probability
	// LossProb and retransmitted after RTO seconds, repeatedly, until a
	// copy gets through (capped at maxRetransmits). Loss therefore never
	// deadlocks a blocking receive — it shows up as a deterministic k*RTO
	// delivery delay, which is exactly how a reliable transport surfaces a
	// lossy link.
	LossProb float64
	RTO      float64 // retransmission timeout per lost copy
}

// maxRetransmits bounds the geometric retransmission draw so a pathological
// LossProb cannot stall a message forever.
const maxRetransmits = 8

// Crash is a fail-stop failure of one rank's I/O-aggregator role: from the
// start of round Round of the rank's Call-th collective call (1-based; Call
// 0 means the first call) the rank stops performing aggregator duties —
// no round announcements, no data collection, no OST writes — forever
// after. The *process* survives: it still holds its application data and
// keeps participating as a data source, which is what makes byte-exact
// recovery possible (the model is a dead I/O delegate — an aggregator
// thread, a burst-buffer node — not a lost memory image).
type Crash struct {
	Rank  int // world rank whose aggregator role dies
	Call  int // collective-call sequence number, 1-based (0 = first call)
	Round int // round within that call at whose start the role dies
}

// OSTFail injects request failures on one OST (or all, with OST == -1):
// requests arriving inside a failure window [At+k*Every, At+k*Every+For)
// fail with probability Prob (Prob >= 1 fails deterministically; For <= 0
// makes the window [At, inf)). Failures are transient: lustre's recovery
// engine retries them with capped exponential backoff, and only an
// exhausted retry budget surfaces a typed error to the caller.
type OSTFail struct {
	OST   int     // OST index; -1 applies to every OST
	Prob  float64 // per-request failure probability inside a window
	At    float64 // start of the first failure window, seconds
	For   float64 // window length, seconds (<= 0 = open-ended)
	Every float64 // window period, seconds (0 = one-shot)
}

// BBFail is a fail-stop failure of one burst-buffer staging node (or all,
// with Node == -1): at virtual time At the node's staging memory is gone.
// Extents whose async drain to the under-backend completed by At survive;
// everything absorbed but not yet drained is lost — the bb tier punches the
// lost ranges out of the under-store, surfaces a typed
// storage.StagingLostError to the next writer/drainer, and flips the node
// permanently to write-through. The model is the storage-tier sibling of
// Crash: a dead I/O delegate, not a lost application memory image, so the
// ranks still hold (or can regenerate) the data and re-dump it.
type BBFail struct {
	Node int     // cluster node id; -1 kills every staging node
	At   float64 // failure instant, virtual seconds
}

// DrainFail injects failures into the burst buffer's async drain writes on
// one node (or all, with Node == -1), with the same windowing as OSTFail:
// drains issued inside [At+k*Every, At+k*Every+For) fail with probability
// Prob. Failed drains are retried by the tier's recovery engine (capped
// exponential backoff, per-node circuit breaker); an open breaker flips the
// node to write-through until its cooldown probe succeeds. Drain-retry time
// is charged at the Drain barrier, deterministically.
type DrainFail struct {
	Node  int     // cluster node id; -1 applies to every staging node
	Prob  float64 // per-drain failure probability inside a window
	At    float64 // start of the first failure window, seconds
	For   float64 // window length, seconds (<= 0 = open-ended)
	Every float64 // window period, seconds (0 = one-shot)
}

// Plan is one named fault scenario: the complete, declarative description
// of how a run is perturbed. The zero value is the healthy (unperturbed)
// plan.
type Plan struct {
	Name       string
	Stragglers []Straggler
	RoundNoise RoundNoise
	OSTs       []OSTFault
	Net        NetFault
	Crashes    []Crash
	OSTFails   []OSTFail
	// Storage-tier fail-stop families (DESIGN.md §15). BBFails and
	// DrainFails reach only the bb backend; ServerFails (the pvfs sibling of
	// OSTFails, same window shape, target ids are server indices) reaches
	// only the pvfs farm. A plan whose storage faults cannot touch the
	// selected backend is inert there — no draws, no clock shifts.
	BBFails     []BBFail
	DrainFails  []DrainFail
	ServerFails []OSTFail
}

// IsZero reports whether the plan perturbs nothing.
func (p *Plan) IsZero() bool {
	if p == nil {
		return true
	}
	return len(p.Stragglers) == 0 && !p.RoundNoise.active() &&
		len(p.OSTs) == 0 && !p.netActive() &&
		len(p.Crashes) == 0 && len(p.OSTFails) == 0 &&
		len(p.BBFails) == 0 && len(p.DrainFails) == 0 && len(p.ServerFails) == 0
}

func (n RoundNoise) active() bool {
	return n.Prob > 0 || n.TailProb > 0
}

func (p *Plan) netActive() bool {
	return p.Net.JitterProb > 0 || p.Net.SpikeProb > 0 ||
		len(p.Net.NodeBWScale) > 0 || p.Net.LossProb > 0
}

// --- sim.Perturber implementation -----------------------------------------

// ComputeScale returns the multiplicative slowdown of proc's local time
// advances (1 = unperturbed). It is a pure function of the proc id, so it
// consumes no randomness.
func (p *Plan) ComputeScale(proc int) float64 {
	s := 1.0
	for _, st := range p.Stragglers {
		if (st.Rank == -1 || st.Rank == proc) && st.Factor > 1 {
			s *= st.Factor
		}
	}
	return s
}

// DeliveryDelay returns extra seconds added to a message's arrival time;
// `at` is the message's unperturbed arrival. rng is the engine's dedicated
// perturbation generator; no draw happens unless the plan carries delivery
// jitter or message loss, so healthy plans leave the generator
// untouched.
func (p *Plan) DeliveryDelay(src, dst int, at float64, rng *rand.Rand) float64 {
	var d float64
	if p.Net.JitterProb > 0 && rng.Float64() < p.Net.JitterProb {
		d += p.Net.JitterDelay * rng.Float64()
	}
	if p.Net.SpikeProb > 0 && rng.Float64() < p.Net.SpikeProb {
		d += p.Net.SpikeDelay
	}
	if p.Net.LossProb > 0 {
		k := 0
		for k < maxRetransmits && rng.Float64() < p.Net.LossProb {
			k++
		}
		d += float64(k) * p.Net.RTO
	}
	return d
}

// --- cluster hook ----------------------------------------------------------

// NodeBWDivisor returns the factor by which the node's NIC bandwidth is
// divided (1 = unperturbed).
func (p *Plan) NodeBWDivisor(node int) float64 {
	if p == nil {
		return 1
	}
	if s, ok := p.Net.NodeBWScale[node]; ok && s > 1 {
		return s
	}
	return 1
}

// --- mpiio hook -------------------------------------------------------------

// RoundStall returns the compute stall, in seconds, rank suffers before one
// collective I/O round. rng is the rank's proc-local generator; no draw
// happens when the plan carries no round noise or the rank is not afflicted.
func (p *Plan) RoundStall(rank int, rng *rand.Rand) float64 {
	if p == nil {
		return 0
	}
	n := p.RoundNoise
	if !n.active() || (n.Rank != -1 && n.Rank != rank) {
		return 0
	}
	var d float64
	if n.Prob > 0 && rng.Float64() < n.Prob {
		d += n.Stall
	}
	if n.TailProb > 0 && rng.Float64() < n.TailProb {
		d += n.TailStall
	}
	return d
}

// --- lustre hooks -----------------------------------------------------------

// OSTScale returns the service-time multiplier for the given OST
// (1 = unperturbed).
func (p *Plan) OSTScale(ost int) float64 {
	if p == nil {
		return 1
	}
	s := 1.0
	for _, f := range p.OSTs {
		if (f.OST == -1 || f.OST == ost) && f.Scale > 1 {
			s *= f.Scale
		}
	}
	return s
}

// --- fail-stop hooks --------------------------------------------------------

// HasCrashes reports whether the plan carries any fail-stop crashes.
func (p *Plan) HasCrashes() bool { return p != nil && len(p.Crashes) > 0 }

// AggCrashed reports whether rank's aggregator role is dead at round
// `round` of its call'th collective call (call is 1-based; a Crash with
// Call 0 matches the first call). Dead means the crash point lies at or
// before (call, round): crashes are permanent, so a rank that died in an
// earlier call — or an earlier round of this one — stays dead. Pure
// function of its arguments: no randomness, identical on every rank.
func (p *Plan) AggCrashed(rank, call, round int) bool {
	if p == nil {
		return false
	}
	for _, c := range p.Crashes {
		if c.Rank != rank {
			continue
		}
		cc := c.Call
		if cc == 0 {
			cc = 1
		}
		if call > cc || (call == cc && round >= c.Round) {
			return true
		}
	}
	return false
}

// OSTErrorAt decides whether a request arriving at OST `ost` at virtual
// time `at` fails. rng is the file
// system's dedicated generator; no draw happens unless a failure window
// covers (ost, at), so plans without OST failures — and requests outside
// every window — leave it untouched.
func (p *Plan) OSTErrorAt(ost int, at float64, rng *rand.Rand) bool {
	return p != nil && failsAt(p.OSTFails, ost, at, rng)
}

// failsAt walks OSTFails or ServerFails for one request: any entry that
// strikes it fails the request. Every covering entry draws, in declaration
// order, even after a hit: the goldens pin that draw sequence.
func failsAt(fails []OSTFail, target int, at float64, rng *rand.Rand) bool {
	failed := false
	for _, f := range fails {
		if strikes(f.OST, target, f.Prob, f.At, f.For, f.Every, at, rng) {
			failed = true
		}
	}
	return failed
}

// strikes is the one window/probability decision behind OSTErrorAt,
// ServerErrorAt and DrainErrorAt. A failure entry aimed at id (-1 = every
// target) strikes a request on target at virtual time at when its window —
// opening at first, lasting length seconds (<= 0 = open-ended), recurring
// every period seconds (0 = one-shot) — covers at, and then with
// probability prob. Only an entry whose window covers at draws from rng, and
// prob >= 1 strikes draw-free.
func strikes(id, target int, prob, first, length, period, at float64, rng *rand.Rand) bool {
	if (id != -1 && id != target) || prob <= 0 {
		return false
	}
	start := first
	if period > 0 && at > start {
		k := int((at - first) / period)
		start = first + float64(k)*period
	}
	if at < start || (length > 0 && at >= start+length) {
		return false
	}
	return prob >= 1 || rng.Float64() < prob
}

// --- storage-tier hooks -----------------------------------------------------

// HasBBFails reports whether the plan kills any burst-buffer staging node.
func (p *Plan) HasBBFails() bool { return p != nil && len(p.BBFails) > 0 }

// HasDrainFails reports whether the plan injects burst-buffer drain
// failures.
func (p *Plan) HasDrainFails() bool { return p != nil && len(p.DrainFails) > 0 }

// HasServerFails reports whether the plan injects pvfs server failures.
func (p *Plan) HasServerFails() bool { return p != nil && len(p.ServerFails) > 0 }

// BBFailAt returns the earliest virtual time at which the named staging
// node's memory dies, and whether any BBFail matches it at all. Pure
// function of the node id — fail-stop is not probabilistic.
func (p *Plan) BBFailAt(node int) (float64, bool) {
	if p == nil {
		return 0, false
	}
	var at float64
	found := false
	for _, f := range p.BBFails {
		if f.Node != -1 && f.Node != node {
			continue
		}
		if !found || f.At < at {
			at = f.At
		}
		found = true
	}
	return at, found
}

// BBDeadCount returns how many of the plan's staging-node deaths have
// already happened at virtual time t. It is the degradation epoch ParColl
// subgroups agree on before re-electing aggregators away from dead staging
// nodes: a pure function of the plan and a virtual clock, so every rank
// that reaches the same synchronized time computes the same count.
func (p *Plan) BBDeadCount(t float64) int {
	if p == nil {
		return 0
	}
	n := 0
	for _, f := range p.BBFails {
		if f.At <= t {
			n++
		}
	}
	return n
}

// BBDeadNodes returns the node ids of the epoch earliest scheduled staging
// deaths (ascending At, declaration order breaking ties) and true, or nil
// and false when any of them kills every node (Node == -1) — then there is
// no healthy node to re-elect onto and callers must keep their aggregators.
func (p *Plan) BBDeadNodes(epoch int) (map[int]bool, bool) {
	if p == nil || epoch <= 0 {
		return nil, false
	}
	idx := make([]int, len(p.BBFails))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.BBFails[idx[a]].At < p.BBFails[idx[b]].At })
	if epoch > len(idx) {
		epoch = len(idx)
	}
	dead := make(map[int]bool, epoch)
	for _, i := range idx[:epoch] {
		if p.BBFails[i].Node == -1 {
			return nil, false
		}
		dead[p.BBFails[i].Node] = true
	}
	return dead, true
}

// DrainErrorAt decides whether a drain issued on `node` at virtual time
// `at` fails. rng is the bb tier's dedicated generator; no draw happens
// unless a failure window covers (node, at), so plans without drain
// failures — and drains outside every window — leave it untouched.
func (p *Plan) DrainErrorAt(node int, at float64, rng *rand.Rand) bool {
	if p == nil || len(p.DrainFails) == 0 {
		return false
	}
	failed := false
	for _, f := range p.DrainFails {
		if strikes(f.Node, node, f.Prob, f.At, f.For, f.Every, at, rng) {
			failed = true
		}
	}
	return failed
}

// ServerErrorAt decides whether a request arriving at pvfs server `server`
// at virtual time `at` fails — the pvfs sibling of OSTErrorAt, same window
// semantics, same draw discipline, keyed by server index.
func (p *Plan) ServerErrorAt(server int, at float64, rng *rand.Rand) bool {
	return p != nil && failsAt(p.ServerFails, server, at, rng)
}

// OSTDownDelay returns how long a request arriving at virtual time `at`
// must wait for the OST to come back up (0 when the OST is up). Pure
// function of (ost, at): deterministic by construction.
func (p *Plan) OSTDownDelay(ost int, at float64) float64 {
	if p == nil {
		return 0
	}
	var delay float64
	for _, f := range p.OSTs {
		if (f.OST != -1 && f.OST != ost) || f.DownFor <= 0 {
			continue
		}
		start := f.DownAt
		if f.DownEvery > 0 && at > start {
			k := int((at - f.DownAt) / f.DownEvery)
			start = f.DownAt + float64(k)*f.DownEvery
		}
		if at >= start && at < start+f.DownFor {
			if d := start + f.DownFor - at; d > delay {
				delay = d
			}
		}
	}
	return delay
}
