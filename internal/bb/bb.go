// Package bb is a node-local burst-buffer staging tier in the spirit of
// Zhang et al.'s loosely-coupled collective I/O: a storage.Backend that
// wraps another backend and absorbs writes into node-local memory at memory
// latency/bandwidth, then drains them to the underlying backend
// asynchronously on the existing nbio progress engine — so a checkpoint
// burst's file-system time hides under the application's next compute phase
// instead of stalling the write call.
//
// Mechanics of one absorbed write: the caller pays only the node's staging
// memory (MemLatency plus bytes over MemBandwidth through a per-node memory
// pipe, so PEs sharing a node contend). The drain to the underlying backend
// is issued in the same call — its NIC and target-service resources are
// booked exactly as a direct async write's would be, optionally paced by a
// per-node drain pipe of DrainBandwidth — and rides an nbio.Request whose
// tail the progress engine hides under whatever the rank does next. Data is
// durable in the under-backend's byte store at issue time (the async-write
// contract), so read-backs are byte-exact at any point.
//
// Capacity: each node's staging memory holds at most Capacity virtual
// bytes. Staged entries are reclaimed in strict FIFO order as their drains
// complete (an entry frees only after every earlier entry on its node has —
// deterministic drain ordering); a write that does not fit falls back to
// writing through to the under-backend at full cost. Try requests also
// write through whenever the under-backend injects request errors, so
// fault-plan error plumbing is preserved.
//
// Fault tolerance (DESIGN.md §15): a fault plan's BBFails fail-stop a
// node's staging memory at a fixed virtual time. Entries whose drains
// completed by that instant survive (they are durable below); entries still
// queued are LOST — the tier punches their ranges out of the under-store
// (they read as zeroes: a loud failure, never silently stale bytes),
// records them in a per-file lost set, and flips the node permanently to
// write-through. The loss surfaces as a typed *storage.StagingLostError
// from a Try write (once per file) and from Drain (until re-dumped);
// LostExtents (storage.LossReporter) lets the collective layer plan the
// re-dump, and any write landing on a lost range heals it. DrainFails make
// drain-completion acknowledgments flaky instead: each drain retries
// through the capped exponential backoff schedule and a per-node breaker,
// its retry time charged at the Drain barrier; while a node's breaker is
// open, new writes on that node temporarily write through. With a zero
// plan none of this runs: no sweep work, no draws, no breaker consults —
// the healthy path is bit-identical to the fault-free tier.
package bb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/nbio"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config tunes the staging tier.
type Config struct {
	// Capacity is each node's staging memory in virtual bytes. Zero means
	// unlimited (never write through).
	Capacity int64
	// DrainBandwidth, when positive, paces each node's drain to the
	// under-backend through a per-node pipe of this many bytes/second; the
	// drain completes at the later of the pipe and the under-backend's own
	// service. Zero leaves the under-backend's pace unthrottled.
	DrainBandwidth float64
	// Seed feeds the drain-retry RNG (only consulted under DrainFails).
	Seed int64
	// Faults, when it carries BBFails or DrainFails, arms the staging-tier
	// failure model described in the package comment. Zero plans are inert.
	Faults *fault.Plan
}

// Tier is a burst-buffer staging tier over an underlying backend.
type Tier struct {
	under storage.Backend
	cfg   Config
	nodes map[int]*nodeState

	rng    *rand.Rand        // drain-retry draws (nil unless armed)
	rt     *recovery.Retrier // drain retries, per-node breakers (nil unless armed)
	ledger *storage.Ledger   // forwarded to under; kept for NoteLost

	// lost maps file name to punched, not-yet-re-dumped extents (coalesced);
	// lostNew marks losses not yet surfaced through a Try write, and lostFrom
	// attributes each file's loss to the staging node that died.
	lost     map[string][]storage.Extent
	lostNew  map[string]bool
	lostFrom map[string]int
	// ufiles holds one under-backend handle per file for punching lost
	// ranges (first open wins; handles are stateless views of the store).
	ufiles map[string]storage.File

	absorbed     int64 // virtual bytes staged at memory speed
	drained      int64 // virtual bytes whose staged entries were reclaimed
	writethrough int64 // virtual bytes that bypassed staging (full buffer)
	lostBytes    int64 // real bytes punched by staging-node failures
	redumped     int64 // real bytes of lost ranges healed by re-dump writes

	obsAbsorbed *obs.Counter
	obsDrained  *obs.Counter
	obsWT       *obs.Counter
	obsLost     *obs.Counter
	obsRedumped *obs.Counter
}

// nodeState is one node's staging-buffer bookkeeping.
type nodeState struct {
	used     int64    // staged virtual bytes not yet reclaimed
	q        []staged // FIFO of staged entries, reclaim order
	drainEnd float64  // latest drain completion issued on this node
	mem      *sim.Resource
	pipe     *sim.Resource // nil unless DrainBandwidth > 0
	failed   bool          // staging memory fail-stopped (BBFail fired)
	wt       bool          // permanently write-through (staging-node failure)

	// dirty maps file name to the node's coalesced staged extents — the
	// residency set reads probe for a memory-speed hit.
	dirty map[string][]storage.Extent
}

// staged is one queued drain: virt bytes of file covering ext, whose drain
// completes at end.
type staged struct {
	file string
	ext  storage.Extent
	virt int64
	end  float64
}

var (
	_ storage.Backend      = (*Tier)(nil)
	_ storage.File         = (*File)(nil)
	_ storage.LossReporter = (*File)(nil)
)

// New wraps under with a staging tier.
func New(under storage.Backend, cfg Config) *Tier {
	t := &Tier{
		under:    under,
		cfg:      cfg,
		nodes:    make(map[int]*nodeState),
		lost:     make(map[string][]storage.Extent),
		lostNew:  make(map[string]bool),
		lostFrom: make(map[string]int),
		ufiles:   make(map[string]storage.File),
	}
	if t.injecting() {
		t.rng = rand.New(rand.NewSource(cfg.Seed*31337 + 7))
		t.rt = recovery.NewRetrier("bb", "node")
	}
	return t
}

// injecting reports whether the tier's own fault model is armed (the
// under-backend's injection is a separate, composable concern).
func (t *Tier) injecting() bool {
	return t.cfg.Faults.HasBBFails() || t.cfg.Faults.HasDrainFails()
}

// Counters returns the tier's cumulative (absorbed, drained, writethrough)
// virtual byte counts.
func (t *Tier) Counters() (absorbed, drained, writethrough int64) {
	return t.absorbed, t.drained, t.writethrough
}

// FaultCounters returns the cumulative real-byte loss ledger: bytes punched
// by staging-node failures and bytes of lost ranges healed by re-dumps.
func (t *Tier) FaultCounters() (lost, redumped int64) {
	return t.lostBytes, t.redumped
}

// SetObs attaches a metrics registry: absorbed/drained/writethrough bytes
// count as they happen, and the under-backend is instrumented too. Pass nil
// to detach. Observe-only.
func (t *Tier) SetObs(reg *obs.Registry) {
	t.under.SetObs(reg)
	if reg == nil {
		t.obsAbsorbed, t.obsDrained, t.obsWT = nil, nil, nil
		t.obsLost, t.obsRedumped = nil, nil
		return
	}
	t.obsAbsorbed = reg.Counter("storage.bb.absorbed.bytes")
	t.obsDrained = reg.Counter("storage.bb.drained.bytes")
	t.obsWT = reg.Counter("storage.bb.writethrough.bytes")
	t.obsLost = reg.Counter("storage.bb.lost.bytes")
	t.obsRedumped = reg.Counter("storage.bb.redumped.bytes")
}

// Stats returns the under-backend's per-target counters (the tier itself
// has no targets; its counters are the byte totals above).
func (t *Tier) Stats() []storage.TargetStat { return t.under.Stats() }

// RetryStats sums the under-backend's retry counters with the tier's own
// drain-retry work.
func (t *Tier) RetryStats() recovery.RetryStats {
	s := t.under.RetryStats()
	s.Add(t.rt.Stats())
	return s
}

// SetLedger forwards the integrity ledger to the under-backend (whose store
// paths perform the tier's actual stores) and keeps it for loss events.
func (t *Tier) SetLedger(l *storage.Ledger) {
	t.ledger = l
	t.under.SetLedger(l)
}

// SetQoS forwards the admission policy to the under-backend: the shared
// targets behind the tier are where cross-job contention lives, while the
// tier's staging memory is per-node and needs no arbitration.
func (t *Tier) SetQoS(p qos.Policy) { t.under.SetQoS(p) }

// RetryStatsByJob returns the under-backend's per-job retry counters. The
// tier's own drain-retry work is node-scoped background activity with no
// issuing job, so it stays in the aggregate RetryStats only.
func (t *Tier) RetryStatsByJob() map[int]recovery.RetryStats {
	return t.under.RetryStatsByJob()
}

// Params inherits the under-backend's cost scale and targets. ListIO is
// always true: staging memory is inherently list-capable (one absorb for
// the whole extent list), and the drain hands the whole request to the
// under-backend — a per-extent service there costs only hidden drain time.
// Injecting adds the tier's own fault model to the under-backend's.
func (t *Tier) Params() storage.Params {
	p := t.under.Params()
	p.ListIO = true
	p.Injecting = p.Injecting || t.injecting()
	return p
}

// Name identifies the backend kind.
func (t *Tier) Name() string { return "bb" }

// node returns (creating) the calling rank's node id and state.
func (t *Tier) node(r *mpi.Rank) (int, *nodeState) {
	id := r.W.Cluster.NodeOf(r.WorldRank())
	ns, ok := t.nodes[id]
	if !ok {
		ns = &nodeState{
			mem:   sim.NewResource(fmt.Sprintf("bbmem%d", id)),
			dirty: make(map[string][]storage.Extent),
		}
		if t.cfg.DrainBandwidth > 0 {
			ns.pipe = sim.NewResource(fmt.Sprintf("bbdrain%d", id))
		}
		t.nodes[id] = ns
	}
	return id, ns
}

// sweep processes every staging-node failure due by virtual time now, in
// ascending node order so the walk is deterministic. Callers hold the
// engine sync. Free with a zero plan.
func (t *Tier) sweep(now float64) {
	if !t.cfg.Faults.HasBBFails() {
		return
	}
	ids := make([]int, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ns := t.nodes[id]
		if ns.failed {
			continue
		}
		if at, ok := t.cfg.Faults.BBFailAt(id); ok && at <= now {
			t.failNode(id, ns, at)
		}
	}
}

// failNode fail-stops one node's staging memory at virtual time at. Entries
// whose drains completed by then survive (reclaimed normally); the rest are
// punched out of the under-store, recorded lost, and the node flips to
// write-through for the rest of the run. Conservative on overlap: punching
// a queued entry's range may zero bytes an earlier, already-durable write
// put there — a loud loss rather than silently stale data; the ledger's
// shadow keeps the acknowledged contents, and re-dump restores them.
func (t *Tier) failNode(id int, ns *nodeState, at float64) {
	t.reclaim(ns, at)
	files := make(map[string]bool)
	for _, s := range ns.q {
		if uf := t.ufiles[s.file]; uf != nil {
			uf.Punch(s.ext.Off, s.ext.Len)
		}
		t.lost[s.file] = append(t.lost[s.file], s.ext)
		t.lostNew[s.file] = true
		t.lostFrom[s.file] = id
		t.lostBytes += s.ext.Len
		if t.obsLost != nil {
			t.obsLost.Add(uint64(s.ext.Len))
		}
		files[s.file] = true
	}
	for file := range files {
		t.lost[file] = storage.Coalesce(t.lost[file])
		if t.ledger != nil {
			t.ledger.NoteLost(file, t.lost[file])
		}
	}
	ns.q = nil
	ns.used = 0
	for file := range ns.dirty {
		delete(ns.dirty, file)
	}
	ns.failed, ns.wt = true, true
	if ns.drainEnd > at {
		ns.drainEnd = at
	}
}

// heal removes any freshly-written ranges from the file's lost set — every
// write through the tier stores in the under-backend at issue time, so a
// write covering a lost range IS its re-dump.
func (t *Tier) heal(file string, exts []storage.Extent) {
	l := t.lost[file]
	if len(l) == 0 {
		return
	}
	rem := storage.Subtract(l, exts)
	healed := storage.SumLen(l) - storage.SumLen(rem)
	t.redumped += healed
	if healed > 0 && t.obsRedumped != nil {
		t.obsRedumped.Add(uint64(healed))
	}
	if len(rem) == 0 {
		delete(t.lost, file)
		delete(t.lostNew, file)
		delete(t.lostFrom, file)
		return
	}
	t.lost[file] = rem
}

// takeLoss surfaces a file's not-yet-reported staging loss as a typed
// error, once: the caller's immediate retry proceeds (and, landing on a
// write-through node, heals its own range), while LostExtents and Drain
// cover the rest of the lost set.
func (t *Tier) takeLoss(file string) error {
	if !t.lostNew[file] {
		return nil
	}
	t.lostNew[file] = false
	return &storage.StagingLostError{
		Node: t.lostFrom[file],
		File: file,
		Lost: append([]storage.Extent(nil), t.lost[file]...),
	}
}

// retryDrain runs one drain-completion acknowledgment through the retry
// engine starting at its booked completion time dEnd: each failed attempt
// feeds the node's breaker and pushes the completion out by the backoff
// schedule; on exhaustion the drain completes anyway at the current clock —
// the bytes were durable at issue, so a lost acknowledgment costs time and
// breaker state, never data. The returned time replaces the booked one, so
// the Drain barrier charges the retry time deterministically. Drains are
// node-scoped background work: their counters reach RetryStats only, never
// RetryStatsByJob.
func (t *Tier) retryDrain(node int, dEnd float64) float64 {
	done, _ := t.rt.Do(node, 0, dEnd, func(at float64) (float64, bool) {
		return at, t.cfg.Faults.DrainErrorAt(node, at, t.rng)
	})
	return done
}

// reclaim frees staged entries whose drains have completed by virtual time
// now, in strict FIFO order: an entry is reclaimed only after every earlier
// entry on the node, so the buffer's occupancy (and hence every
// write-through decision) is a deterministic function of virtual time.
func (t *Tier) reclaim(ns *nodeState, now float64) {
	n := 0
	for n < len(ns.q) && ns.q[n].end <= now {
		n++
	}
	if n == 0 {
		return
	}
	for _, s := range ns.q[:n] {
		ns.used -= s.virt
		t.drained += s.virt
		if t.obsDrained != nil {
			t.obsDrained.Add(uint64(s.virt))
		}
	}
	ns.q = append(ns.q[:0], ns.q[n:]...)
	t.rebuildDirty(ns)
}

// rebuildDirty recomputes the node's per-file residency sets from the
// remaining queue (coalesced).
func (t *Tier) rebuildDirty(ns *nodeState) {
	for f := range ns.dirty {
		delete(ns.dirty, f)
	}
	for _, s := range ns.q {
		ns.dirty[s.file] = append(ns.dirty[s.file], s.ext)
	}
	for f, exts := range ns.dirty {
		ns.dirty[f] = storage.Coalesce(exts)
	}
}

// Drain blocks (in virtual time) until every drain issued on the calling
// rank's node has completed, charging the exposed wait to ClassIO — the
// checkpoint-burst "make it durable now" barrier. If the node's staging
// memory is scheduled to die during the wait, the wait ends at the failure
// instant and the undrained entries are lost then. After the wait it
// reports any staged data the tier has lost and not yet seen re-dumped —
// every call, not once, so every rank of a collective re-dump sees the same
// remaining loss (deterministic file order, first afflicted file).
func (t *Tier) Drain(r *mpi.Rank) error {
	r.P.Sync()
	now := r.Now()
	t.sweep(now)
	id, ns := t.node(r)
	if t.cfg.Faults.HasBBFails() && !ns.failed {
		if at, ok := t.cfg.Faults.BBFailAt(id); ok && at <= ns.drainEnd {
			t.failNode(id, ns, at)
		}
	}
	if ns.drainEnd > now {
		r.ChargeIO(ns.drainEnd - now)
		now = r.Now()
	}
	t.reclaim(ns, now)
	if !t.injecting() || len(t.lost) == 0 {
		return nil
	}
	names := make([]string, 0, len(t.lost))
	for name, exts := range t.lost {
		if len(exts) > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	name := names[0]
	t.lostNew[name] = false
	return &storage.StagingLostError{
		Node: t.lostFrom[name],
		File: name,
		Lost: append([]storage.Extent(nil), t.lost[name]...),
	}
}

// Open opens the file on the under-backend and wraps the handle.
func (t *Tier) Open(r *mpi.Rank, name string, stripe storage.Stripe) storage.File {
	uf := t.under.Open(r, name, stripe)
	if _, ok := t.ufiles[name]; !ok {
		t.ufiles[name] = uf
	}
	return &File{t: t, name: name, uf: uf}
}

// File is a staged handle over an under-backend file.
type File struct {
	t    *Tier
	name string
	uf   storage.File
}

// Stripe returns the under-file's stripe layout.
func (f *File) Stripe() storage.Stripe { return f.uf.Stripe() }

// Size returns the under-file's length (stores happen at issue time, so
// staged writes are already counted).
func (f *File) Size() int64 { return f.uf.Size() }

// Contents returns the file's bytes at no time cost.
func (f *File) Contents() []byte { return f.uf.Contents() }

// Peek returns the file's bytes in [off, off+n) at no time cost.
func (f *File) Peek(off, n int64) []byte { return f.uf.Peek(off, n) }

// Punch forwards to the under-store (staged reads serve through the
// under-file's Peek, so a punched range reads zeroes immediately).
func (f *File) Punch(off, n int64) { f.uf.Punch(off, n) }

// LostExtents implements storage.LossReporter: it processes any
// staging-node failures due by the rank's current virtual time and returns
// the file's punched, not-yet-re-dumped extents for the caller to plan its
// re-dump from. Marks the file's loss reported.
func (f *File) LostExtents(r *mpi.Rank) []storage.Extent {
	t := f.t
	if !t.injecting() {
		return nil
	}
	r.P.Sync()
	t.sweep(r.Now())
	if t.lostNew[f.name] {
		t.lostNew[f.name] = false
	}
	return append([]storage.Extent(nil), t.lost[f.name]...)
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Submit issues q. A plain write stages (see stage) and a plain read serves
// staging-buffer hits at memory speed (see read). Try requests carry the
// error plumbing: a not-yet-reported staging loss on this file surfaces
// first, as a typed *storage.StagingLostError, before any bytes move — the
// caller's retry then proceeds (the failed node is write-through by then)
// and heals what it rewrites — and a Try read overlapping a lost,
// not-yet-re-dumped range is refused every time, so a reader can never
// consume punched zeroes as data. Otherwise, under an error-injecting
// under-backend a Try request goes through the under-backend so typed
// errors (and their retry accounting) surface exactly as they would without
// the tier; healthy plans take the plain path and never fail.
func (f *File) Submit(r *mpi.Rank, q *storage.Req) (float64, error) {
	t := f.t
	if q.Try && t.injecting() {
		r.P.Sync()
		t.sweep(r.Now())
		if q.Write {
			if err := t.takeLoss(f.name); err != nil {
				return r.Now(), err
			}
		} else if sect := storage.Intersect(t.lost[f.name], q.Exts); len(sect) > 0 {
			return r.Now(), &storage.StagingLostError{Node: t.lostFrom[f.name], File: f.name, Lost: sect}
		}
	}
	if q.Try && t.under.Params().Injecting {
		if !q.Write {
			return f.uf.Submit(r, q)
		}
		t.countWritethrough(int64(float64(storage.SumLen(q.Exts)) * t.under.Params().CostScale))
		done, err := f.uf.Submit(r, q)
		if err == nil && t.injecting() {
			t.heal(f.name, q.Exts)
		}
		return done, err
	}
	if q.Write {
		return f.stage(r, q), nil
	}
	return f.read(r, q), nil
}

// countWritethrough counts virt bytes that bypassed staging.
func (t *Tier) countWritethrough(virt int64) {
	t.writethrough += virt
	if t.obsWT != nil {
		t.obsWT.Add(uint64(virt))
	}
}

// stage absorbs one write request into the node's staging memory and
// issues its drain, returning the write's virtual completion time (the
// memory absorb). Falls back to write-through when the buffer cannot hold
// the request, when the node is degraded (a staging-node failure), or while the
// node's drain breaker is open. Data is durable in the under-store on
// return either way, and any write covering a lost range heals it.
func (f *File) stage(r *mpi.Rank, q *storage.Req) float64 {
	t := f.t
	total := storage.SumLen(q.Exts)
	if total == 0 {
		return r.Now()
	}
	r.P.Sync()
	now := r.Now()
	t.sweep(now)
	id, ns := t.node(r)
	t.reclaim(ns, now)
	scale := t.under.Params().CostScale
	virtF := float64(total) * scale
	virt := int64(virtF)
	wt := ns.wt
	if !wt && t.cfg.Capacity > 0 && ns.used+virt > t.cfg.Capacity {
		wt = true // full buffer
	}
	if !wt && t.cfg.Faults.HasDrainFails() && t.rt.Breaker(id).State(now) == recovery.BreakerOpen {
		wt = true // flaky drains tripped the node's breaker: back off staging
	}
	if wt {
		// Write through at the under-backend's cost.
		t.countWritethrough(virt)
		done := storage.Must(r, f.uf, q)
		if t.injecting() {
			t.heal(f.name, q.Exts)
		}
		return done
	}
	// Absorb: the caller pays node memory only.
	cl := r.W.Cluster.Config()
	_, memEnd := ns.mem.Acquire(now, virtF/cl.MemBandwidth)
	done := memEnd + cl.MemLatency
	// Issue the drain: the under-backend's resources are booked now (the
	// async-write contract), optionally paced by the node's drain pipe.
	dEnd := storage.Must(r, f.uf, q)
	if ns.pipe != nil {
		_, pEnd := ns.pipe.Acquire(now, virtF/t.cfg.DrainBandwidth)
		if pEnd > dEnd {
			dEnd = pEnd
		}
	}
	if dEnd < done {
		dEnd = done
	}
	if t.cfg.Faults.HasDrainFails() {
		dEnd = t.retryDrain(id, dEnd)
	}
	ns.used += virt
	for _, e := range q.Exts {
		ns.q = append(ns.q, staged{file: f.name, ext: e, virt: 0, end: dEnd})
	}
	if len(ns.q) > 0 {
		// Capacity is tracked per request, not per extent: attribute the
		// whole request's bytes to its last queue entry.
		ns.q[len(ns.q)-1].virt = virt
	}
	ns.dirty[f.name] = storage.Coalesce(append(ns.dirty[f.name], q.Exts...))
	if dEnd > ns.drainEnd {
		ns.drainEnd = dEnd
	}
	t.absorbed += virt
	if t.obsAbsorbed != nil {
		t.obsAbsorbed.Add(uint64(virt))
	}
	if t.injecting() {
		t.heal(f.name, q.Exts)
	}
	// Ride the progress engine: the drain tail hides under whatever the
	// rank does next (compute, the next round's exchange).
	nbio.Start(r, dEnd, nil, nil, nil)
	return done
}

// read serves a read request: extents fully resident in the node's staging
// buffer cost memory only; the rest go to the under-backend as one request.
func (f *File) read(r *mpi.Rank, q *storage.Req) float64 {
	t := f.t
	r.P.Sync()
	now := r.Now()
	t.sweep(now)
	_, ns := t.node(r)
	t.reclaim(ns, now)
	dirty := ns.dirty[f.name]
	hit := func(e storage.Extent) bool { return storage.Covered(dirty, e.Off, e.Len) }
	if !slices.ContainsFunc(q.Exts, hit) {
		return storage.Must(r, f.uf, q)
	}
	cl := r.W.Cluster.Config()
	scale := t.under.Params().CostScale
	base := len(q.Bufs)
	var miss *storage.Req // allocated on the first miss
	var missIdx []int
	done := now
	for i, e := range q.Exts {
		if hit(e) {
			q.Bufs = append(q.Bufs, f.uf.Peek(e.Off, e.Len))
			virtF := float64(e.Len) * scale
			_, memEnd := ns.mem.Acquire(now, virtF/cl.MemBandwidth)
			if end := memEnd + cl.MemLatency; end > done {
				done = end
			}
			continue
		}
		if miss == nil {
			miss = &storage.Req{}
		}
		q.Bufs = append(q.Bufs, nil)
		miss.Exts = append(miss.Exts, e)
		missIdx = append(missIdx, base+i)
	}
	if miss != nil {
		if uEnd := storage.Must(r, f.uf, miss); uEnd > done {
			done = uEnd
		}
		for j, i := range missIdx {
			q.Bufs[i] = miss.Bufs[j]
		}
	}
	return done
}
