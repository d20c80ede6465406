// Package lustre models a striped parallel file system in the spirit of the
// Lustre deployment on Jaguar: a set of object storage targets (OSTs) with
// per-request overhead and finite bandwidth, files striped round-robin over
// a subset of OSTs, and a metadata server that serializes opens.
//
// Timing: each contiguous per-OST chunk of a read or write is one RPC. A
// write ships the chunk through the client's transmit NIC (so file I/O and
// message passing contend for the same link, as on the Cray XT), then the
// OST serves it — overhead plus bytes/bandwidth — and acknowledges. Reads
// are symmetric through the receive NIC. The operation completes when the
// slowest chunk completes; the elapsed time is charged to the rank's
// ClassIO bucket.
//
// Data: file contents are stored for real (sparse page map) so tests can
// verify byte-exact read-after-write behaviour. CostScale lets experiments
// move small real buffers while being charged for paper-sized data.
package lustre

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fault"
	"repro/internal/ldlm"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config describes the file system hardware model.
type Config struct {
	NumOSTs         int     // object storage targets available
	OSTBandwidth    float64 // bytes/second each OST sustains
	RequestOverhead float64 // seconds of fixed cost per RPC (seek, service)
	OpenCost        float64 // seconds of metadata-server time per open
	CostScale       float64 // virtual bytes per real byte (default 1)
	// Jitter is the relative service-time noise per request (0.1 = ±10%),
	// drawn deterministically from Seed. Shared storage is never
	// noise-free; the noise is what lets independent ParColl subgroups
	// drift apart instead of hammering the same stripe in lockstep, and it
	// makes straggler-waiting grow with synchronization-group size.
	Jitter float64
	Seed   int64
	// SwitchPenalty is the extra service time an OST pays when a request
	// comes from a different client than the previous one (extent-lock
	// revocation plus a disk seek). It is why a thousand uncoordinated
	// writers collapse — the paper's "Cray w/o Coll" at ~60 MB/s — while
	// a few aggregators with large sequential requests amortize it.
	SwitchPenalty float64
	// TailProb and TailPenalty model heavy-tailed service times (RAID
	// controller hiccups, background scrubbing, shared-machine
	// interference — the noise the paper averaged repeated measurements
	// over). Tails are what the collective wall amplifies: a globally
	// synchronized protocol stalls every process on every tail event,
	// while ParColl confines each tail to one subgroup.
	TailProb    float64
	TailPenalty float64
	// UseExtentLocks replaces the flat SwitchPenalty heuristic with the
	// real mechanism it approximates: per-object extent locks managed by
	// internal/ldlm. Every request enqueues a lock on its OST object; each
	// conflicting holder costs one blocking-AST round trip (RevokeCost).
	UseExtentLocks bool
	// RevokeCost is the time one lock callback adds to a request when
	// extent locks are enabled (callback + flush + re-grant).
	RevokeCost float64
	// Faults, when non-nil, degrades OSTs per the plan: service times are
	// multiplied by the per-OST scale, and requests arriving inside a
	// transient unavailability window stall until it closes. Both effects
	// are pure functions of (OST, virtual time), so determinism holds.
	// Plans carrying OSTFails additionally make requests fail outright;
	// those are absorbed by the retry engine (capped exponential backoff
	// plus a per-OST circuit breaker) and surface as typed
	// *recovery.TargetError only when permanent or budget-exhausted.
	Faults *fault.Plan
	// Retry overrides the retry engine's backoff schedule; zero fields take
	// recovery's defaults. Only consulted when Faults injects OST errors.
	Retry recovery.Backoff
}

// DefaultConfig approximates the paper's test file system: 72 OSTs behind
// 4 Gbps Fibre Channel, about 140 MB/s per OST with sub-millisecond
// request overhead.
func DefaultConfig() Config {
	return Config{
		NumOSTs:         72,
		OSTBandwidth:    1.4e8,
		RequestOverhead: 8e-4,
		OpenCost:        5e-5,
		CostScale:       1,
		Jitter:          0.1,
		Seed:            1,
		SwitchPenalty:   1.5e-3,
		TailProb:        0.02,
		TailPenalty:     3e-2,
		RevokeCost:      1.5e-3,
	}
}

// StripeInfo is a file's striping layout, set at create time. It is the
// storage package's Stripe — the layout type moved to the backend seam in
// the storage.Backend extraction; the alias keeps every call site reading
// (and compiling) unchanged.
type StripeInfo = storage.Stripe

// DefaultStripe mirrors the paper's experiments: 64 targets, 4 MB units.
func DefaultStripe() StripeInfo { return StripeInfo{Count: 64, Size: 4 << 20} }

// FS is one file system instance. Create one per simulation run and share
// it across ranks (the engine serializes access).
type FS struct {
	cfg        Config
	osts       []*sim.Resource
	mds        *sim.Resource
	files      map[string]*fileObj
	rng        *rand.Rand
	lastClient []int // per OST: world rank of the previous requester
	stats      []OSTStat
	locks      *ldlm.Manager // non-nil when UseExtentLocks
	sinceTrim  int           // requests since the last ledger compaction

	// Retry engine, armed only when cfg.Faults injects OST errors. The
	// healthy path never touches it, so plans without OSTFails are
	// bit-identical (and allocation-identical) to builds without the
	// engine.
	rt *recovery.Retrier

	// Server-side admission policy (nil = unshaped FIFO fast path). Every
	// request's service start passes through qos.Admit, keyed by the
	// issuing rank's JobID, before the OST ledger books it — DESIGN.md §16.
	qos qos.Policy

	// Integrity ledger (nil unless SetLedger attached one). Recording a
	// digest is free in virtual time, so an audited run stays bit-identical.
	ledger *storage.Ledger

	// Pre-resolved obs instruments (nil unless SetObs armed them). The
	// healthy fast path pays one nil check per request.
	obsSvc  *obs.Histogram // per-request OST service time
	obsWait *obs.Histogram // per-request OST queue wait (Acquire start - arrival)
}

var (
	_ storage.Backend = (*FS)(nil)
	_ storage.File    = (*File)(nil)
)

// SetObs attaches a metrics registry: every served request observes its
// service time and queue wait, and the retry engine counts retries and
// breaker opens as they happen. Pass nil to detach. The instruments only
// read values the simulation already computed — no clock advances, no RNG
// draws — so an instrumented run is bit-identical to a bare one.
func (fs *FS) SetObs(reg *obs.Registry) {
	var retries, opens *obs.Counter
	fs.obsSvc, fs.obsWait = nil, nil
	if reg != nil {
		fs.obsSvc = reg.Histogram("lustre.ost.service.secs", nil)
		fs.obsWait = reg.Histogram("lustre.ost.queue_wait.secs", nil)
		retries, opens = reg.Counter("lustre.retry.retries"), reg.Counter("lustre.retry.breaker_opens")
	}
	if fs.rt != nil {
		fs.rt.ObsRetries, fs.rt.ObsOpens = retries, opens
	}
}

// trimEvery is how many I/O requests pass between ledger compactions.
const trimEvery = 512

// maybeTrim periodically drops fully-past intervals from the OST and MDS
// ledgers so fragmented bookings cannot grow them without bound over long
// runs. The watermark is the engine-wide minimum proc clock: every future
// booking's start time is at or after it, so trimming is invisible to
// results (see sim.Resource.Trim).
func (fs *FS) maybeTrim(r *mpi.Rank) {
	fs.sinceTrim++
	if fs.sinceTrim < trimEvery {
		return
	}
	fs.sinceTrim = 0
	w := r.P.MinClock()
	for _, o := range fs.osts {
		o.Trim(w)
	}
	fs.mds.Trim(w)
}

// OSTStat aggregates one OST's service counters for analysis output (an
// alias of the storage seam's per-target counter type).
type OSTStat = storage.TargetStat

// svcTime returns the service time for a request of virt bytes on OST ost
// issued by client rank arriving at virtual time `at`, including jitter and
// concurrency penalties: either the flat client-switch heuristic or, with
// UseExtentLocks, the revocation round trips the LDLM reports for the
// extent [off, off+ln). Under a fault plan, the base service time is scaled
// by the OST's degradation factor and a request arriving inside a downtime
// window additionally waits for the OST to come back up.
func (fs *FS) svcTime(obj string, ost int, rank int, at float64, off, ln int64, virt float64, mode ldlm.Mode) float64 {
	st := &fs.stats[ost]
	st.Requests++
	st.Bytes += int64(virt)
	svc := (fs.cfg.RequestOverhead + virt/fs.cfg.OSTBandwidth) * fs.noise()
	if fs.cfg.Faults != nil {
		svc *= fs.cfg.Faults.OSTScale(ost)
		svc += fs.cfg.Faults.OSTDownDelay(ost, at)
	}
	if fs.locks != nil {
		key := fmt.Sprintf("%s/%d", obj, ost)
		if revoked := fs.locks.Enqueue(key, rank, off, off+ln, mode); revoked > 0 {
			svc += float64(revoked) * fs.cfg.RevokeCost
			st.Switches += int64(revoked)
		}
	} else if fs.lastClient[ost] != rank {
		if fs.lastClient[ost] >= 0 {
			svc += fs.cfg.SwitchPenalty
			st.Switches++
		}
		fs.lastClient[ost] = rank
	}
	if fs.cfg.TailProb > 0 && fs.rng.Float64() < fs.cfg.TailProb {
		svc += fs.cfg.TailPenalty
		st.Tails++
	}
	st.BusySecs += svc
	if fs.obsSvc != nil {
		fs.obsSvc.Observe(svc)
	}
	return svc
}

// Stats returns a copy of the per-OST service counters.
func (fs *FS) Stats() []OSTStat {
	return append([]OSTStat(nil), fs.stats...)
}

// serve books one chunk's service on its OST, starting at virtual time `at`,
// and returns the completion time. The fast path — no injected OST errors —
// is one svcTime call and one Acquire, no extra draws. Under injection the
// chunk runs through the retry engine: each attempt asks the plan whether it
// fails, and a failed attempt books only the request overhead (the RPC that
// came back with an error still occupied the target).
func (fs *FS) serve(obj string, ost, rank, job int, at float64, off, ln int64, virt float64, mode ldlm.Mode) (float64, error) {
	if fs.rt == nil {
		return fs.book(obj, ost, rank, job, at, off, ln, virt, mode), nil
	}
	return fs.rt.Do(ost, job, at, func(at float64) (float64, bool, bool) {
		if failed, perm := fs.cfg.Faults.OSTErrorAt(ost, at, fs.rng); failed {
			fs.stats[ost].Errors++
			cost := fs.cfg.RequestOverhead * fs.noise()
			fs.stats[ost].BusySecs += cost
			_, end := fs.osts[ost].Acquire(at, cost)
			return end, true, perm
		}
		return fs.book(obj, ost, rank, job, at, off, ln, virt, mode), false, false
	})
}

// book serves one chunk on its OST from virtual time `at`, through the
// admission policy, and returns its completion.
func (fs *FS) book(obj string, ost, rank, job int, at float64, off, ln int64, virt float64, mode ldlm.Mode) float64 {
	svc := fs.svcTime(obj, ost, rank, at, off, ln, virt, mode)
	if fs.qos != nil {
		at = fs.qos.Admit(ost, job, at, svc)
	}
	start, end := fs.osts[ost].Acquire(at, svc)
	if fs.obsWait != nil {
		fs.obsWait.Observe(start - at)
	}
	return end
}

// noise returns the multiplicative service-time factor for one request.
func (fs *FS) noise() float64 {
	if fs.cfg.Jitter == 0 {
		return 1
	}
	return 1 + fs.cfg.Jitter*(2*fs.rng.Float64()-1)
}

// NewFS builds a file system.
func NewFS(cfg Config) *FS {
	if cfg.NumOSTs <= 0 {
		panic("lustre: need at least one OST")
	}
	if cfg.CostScale == 0 {
		cfg.CostScale = 1
	}
	fs := &FS{
		cfg:        cfg,
		osts:       make([]*sim.Resource, cfg.NumOSTs),
		mds:        sim.NewResource("mds"),
		files:      make(map[string]*fileObj),
		rng:        rand.New(rand.NewSource(cfg.Seed*7919 + 13)),
		lastClient: make([]int, cfg.NumOSTs),
		stats:      make([]OSTStat, cfg.NumOSTs),
	}
	if cfg.UseExtentLocks {
		fs.locks = ldlm.New()
	}
	for i := range fs.osts {
		fs.osts[i] = sim.NewResource(fmt.Sprintf("ost%d", i))
		fs.lastClient[i] = -1
	}
	if cfg.Faults != nil && len(cfg.Faults.OSTFails) > 0 {
		fs.rt = recovery.NewRetrier("lustre", "OST", cfg.Retry, fs.rng)
	}
	return fs
}

// RetryStats returns a copy of the retry engine's counters (all zero when
// the plan injects no OST errors).
func (fs *FS) RetryStats() recovery.RetryStats { return fs.rt.Stats() }

// RetryStatsByJob returns the retry counters keyed by the issuing rank's
// JobID — empty on healthy runs, one job-0 bucket for single-job tools.
func (fs *FS) RetryStatsByJob() map[int]recovery.RetryStats { return fs.rt.StatsByJob() }

// SetQoS installs a server-side admission policy (nil detaches). The nil
// path is branch-identical to pre-QoS builds; see DESIGN.md §16.
func (fs *FS) SetQoS(p qos.Policy) { fs.qos = p }

// Config returns the file system's parameters.
func (fs *FS) Config() Config { return fs.cfg }

// OSTBusyTimes returns each OST's total booked service time (diagnostics).
func (fs *FS) OSTBusyTimes() []float64 {
	out := make([]float64, len(fs.osts))
	for i, o := range fs.osts {
		out[i] = o.BusyTime()
	}
	return out
}

type fileObj struct {
	name   string
	stripe StripeInfo
	data   *storage.ByteStore
}

// File is an open handle. Handles are cheap; every rank opens its own.
type File struct {
	fs  *FS
	obj *fileObj
}

// Open opens (creating if necessary) the named file. The stripe layout
// applies only on create, like Lustre's. Open costs metadata-server time,
// which serializes when many ranks open at once. The handle is returned as
// the backend seam's interface type (the concrete handle is *File).
func (fs *FS) Open(r *mpi.Rank, name string, stripe StripeInfo) storage.File {
	if stripe.Count <= 0 || stripe.Size <= 0 {
		panic("lustre: invalid stripe layout")
	}
	if stripe.Count > fs.cfg.NumOSTs {
		stripe.Count = fs.cfg.NumOSTs
	}
	r.P.Sync()
	_, end := fs.mds.Acquire(r.Now(), fs.cfg.OpenCost)
	r.ChargeIO(end - r.Now())
	obj, ok := fs.files[name]
	if !ok {
		obj = &fileObj{name: name, stripe: stripe, data: storage.NewByteStore()}
		fs.files[name] = obj
	}
	return &File{fs: fs, obj: obj}
}

// Remove deletes a file's data and releases the per-file ledger state the
// FS holds for it — with extent locks enabled, each of the file's OST
// objects has an LDLM namespace (keyed "name/ost") that would otherwise
// outlive the file: a recreated file of the same name would inherit the old
// granted locks and pay phantom revocations on first touch. No time cost.
func (fs *FS) Remove(name string) {
	delete(fs.files, name)
	if fs.locks != nil {
		for i := 0; i < fs.cfg.NumOSTs; i++ {
			fs.locks.Forget(fmt.Sprintf("%s/%d", name, i))
		}
	}
}

// Drain returns nil at once: lustre buffers nothing — every write is
// durable on its OSTs by the time the call's completion wait has been
// charged, so nothing can be lost.
func (fs *FS) Drain(r *mpi.Rank) error { return nil }

// SetLedger attaches an integrity ledger: every subsequent store records a
// seeded digest of the written extent at issue time. Pass nil to detach.
// Recording is free in virtual time and draw-free, so an audited run is
// bit-identical to a bare one.
func (fs *FS) SetLedger(l *storage.Ledger) { fs.ledger = l }

// Params returns the backend properties the I/O protocol layers consult.
func (fs *FS) Params() storage.Params {
	return storage.Params{
		CostScale: fs.cfg.CostScale,
		Targets:   fs.cfg.NumOSTs,
		ListIO:    false,
		Injecting: fs.rt != nil,
	}
}

// Name identifies the backend kind for reports and sweeps.
func (fs *FS) Name() string { return "lustre" }

// Stripe returns the file's stripe layout.
func (f *File) Stripe() StripeInfo { return f.obj.stripe }

// Size returns the file length (highest byte written so far).
func (f *File) Size() int64 { return f.obj.data.Size() }

// Name returns the file's name.
func (f *File) Name() string { return f.obj.name }

// ostIndexFor returns the OST id serving stripe unit index u.
func (f *File) ostIndexFor(u int64) int {
	s := f.obj.stripe
	return int((int64(s.Offset) + u%int64(s.Count)) % int64(len(f.fs.osts)))
}

// chunks splits [off, off+n) at stripe-unit boundaries and calls fn with
// each (offset, length, stripe unit index).
func (f *File) chunks(off, n int64, fn func(o, l, unit int64)) {
	ss := f.obj.stripe.Size
	for n > 0 {
		unit := off / ss
		l := (unit+1)*ss - off
		if l > n {
			l = n
		}
		fn(off, l, unit)
		off += l
		n -= l
	}
}

// Submit issues q. Lustre has no native list I/O, so every extent's
// stripe chunks go out as RPCs of their own, all from the rank's current
// clock: a write chunk ships through the client's transmit NIC, then its
// OST serves it and acknowledges; a read chunk's OST serves it, then the
// data crosses the receive NIC. The request completes when its slowest
// chunk does. Transient injected failures are absorbed by the retry engine
// and cost only virtual time. A *recovery.TargetError (permanent target or
// exhausted budget) stops the request: no further chunk is issued, a write
// stores no bytes (all-or-nothing, so a whole-request retry is
// idempotent), and the completion time still covers the failed attempts.
func (f *File) Submit(r *mpi.Rank, q *storage.Req) (float64, error) {
	if storage.SumLen(q.Exts) == 0 {
		if !q.Write {
			q.Bufs = append(q.Bufs, make([][]byte, len(q.Exts))...)
		}
		return r.Now(), nil
	}
	cl := r.W.Cluster
	lat, nicBW := cl.Config().Latency, cl.Config().NICBandwidth
	nic, mode := cl.TxNIC(r.WorldRank()), ldlm.PW
	if !q.Write {
		nic, mode = cl.RxNIC(r.WorldRank()), ldlm.PR
	}
	r.P.Sync()
	now := r.Now()
	done := now
	var err error
	for _, e := range q.Exts {
		if e.Len > 0 && e.Off < 0 {
			panic("lustre: negative offset")
		}
		f.chunks(e.Off, e.Len, func(o, l, unit int64) {
			if err != nil {
				return
			}
			virt := float64(l) * f.fs.cfg.CostScale
			at := now + lat
			if q.Write {
				_, txEnd := nic.Acquire(now, virt/nicBW)
				at = txEnd + lat
			}
			end, serr := f.fs.serve(f.obj.name, f.ostIndexFor(unit), r.WorldRank(), r.JobID(), at, o, l, virt, mode)
			fin := end + lat
			if serr != nil {
				err = serr
			} else if !q.Write {
				_, fin = nic.Acquire(end+lat, virt/nicBW)
			}
			done = max(done, fin)
		})
	}
	f.fs.maybeTrim(r)
	if err != nil {
		return done, err
	}
	if !q.Write {
		q.Bufs = slices.Grow(q.Bufs, len(q.Exts))
	}
	for i, e := range q.Exts {
		switch {
		case !q.Write:
			q.Bufs = append(q.Bufs, f.obj.load(e.Off, e.Len))
		case e.Len > 0:
			f.store(e.Off, q.Bufs[i][:e.Len])
		}
	}
	return done, nil
}

// store commits data to the file's byte store and, when an integrity ledger
// is attached, records the extent's issue-time digest. Zero time cost.
func (f *File) store(off int64, data []byte) {
	f.obj.data.Store(off, data)
	if f.fs.ledger != nil {
		f.fs.ledger.Record(f.obj.name, off, data)
	}
}

func (o *fileObj) load(off, n int64) []byte { return o.data.Load(off, n) }

// Punch zeroes any stored bytes in [off, off+n) without growing the file or
// charging time. It is the fault layer's hook for modeling lost staged data:
// a range whose durability was revoked reads back as zeroes until re-dumped,
// so a recovery path that forgets to rewrite it cannot pass verification on
// stale bytes. The integrity ledger is deliberately not updated — it keeps
// the acknowledged contents, which re-dump must restore.
func (f *File) Punch(off, n int64) { f.obj.data.Zero(off, n) }

// Contents returns the file's bytes in [0, Size) — test convenience with no
// simulated time cost.
func (f *File) Contents() []byte { return f.obj.load(0, f.obj.data.Size()) }

// Peek returns the file's bytes in [off, off+n) with no simulated time cost.
func (f *File) Peek(off, n int64) []byte { return f.obj.load(off, n) }
