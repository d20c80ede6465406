// Package pvfs models a PVFS-style parallel file system with native
// list-I/O, after Ching et al.'s "Noncontiguous I/O through PVFS": a client
// describes an arbitrary set of (offset, length) extents in ONE request per
// touched server, and the server moves all of them in one service — so a
// noncontiguous flush costs one request round-trip plus the summed transfer
// instead of a per-extent RPC each.
//
// The other deliberate difference from the lustre model: PVFS is lockless
// (no distributed lock manager, no extent-lock revocations), so there are
// no client-switch or revocation penalties and no heavy-tail lock stalls —
// consistency is the application's job, which collective I/O provides by
// construction. Servers still have per-request overhead, finite bandwidth,
// and jittered service times, so request-count reduction is measurable as
// time, not just as a counter.
//
// Timing of one vectored write: the extents ship through the client's
// transmit NIC back-to-back (one summed transfer), then each touched server
// serves its portion — one request overhead plus its summed bytes over
// bandwidth, jitter applied per request — and the call completes when the
// slowest server acknowledges. Reads are symmetric through the receive NIC.
package pvfs

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config describes the server farm. The defaults mirror the lustre model's
// hardware so backend comparisons isolate the protocol difference.
type Config struct {
	NumServers      int     // I/O servers (the lustre model's OSTs)
	ServerBandwidth float64 // bytes/second each server sustains
	RequestOverhead float64 // seconds of fixed cost per list-I/O request
	OpenCost        float64 // seconds of metadata time per open
	CostScale       float64 // virtual bytes per real byte (default 1)
	Jitter          float64 // relative service-time noise per request
	Seed            int64
	// Faults, when it carries ServerFails, makes requests against afflicted
	// servers fail inside the plan's windows. Each server is an independent
	// failure domain per Ching et al.: a vectored call falls back to scalar
	// semantics — every surviving server's portion is served on schedule
	// while the failed server's portion retries alone (capped exponential
	// backoff, per-server breaker), and only permanence or budget
	// exhaustion surfaces a typed *recovery.TargetError.
	Faults *fault.Plan
	// Retry overrides the retry engine's backoff schedule; zero fields take
	// recovery's defaults. Only consulted when Faults injects server errors.
	Retry recovery.Backoff
}

// DefaultConfig mirrors lustre.DefaultConfig's hardware: 72 servers at
// ~140 MB/s with sub-millisecond request overhead.
func DefaultConfig() Config {
	return Config{
		NumServers:      72,
		ServerBandwidth: 1.4e8,
		RequestOverhead: 8e-4,
		OpenCost:        5e-5,
		CostScale:       1,
		Jitter:          0.1,
		Seed:            1,
	}
}

// FS is one PVFS instance. Create one per run and share it across ranks;
// the engine serializes access (every operation begins with a sync).
type FS struct {
	cfg       Config
	servers   []*sim.Resource
	mds       *sim.Resource
	files     map[string]*fileObj
	rng       *rand.Rand
	stats     []storage.TargetStat
	sinceTrim int

	rt     *recovery.Retrier // armed only when the plan injects server errors
	ledger *storage.Ledger

	// Server-side admission policy (nil = unshaped fast path); every
	// list-I/O request's start passes through qos.Admit keyed by the
	// issuing rank's JobID — DESIGN.md §16.
	qos qos.Policy

	obsReqs *obs.Counter // storage.listio.requests (nil unless SetObs)
}

// NewFS builds a file system.
func NewFS(cfg Config) *FS {
	if cfg.NumServers <= 0 {
		panic("pvfs: need at least one server")
	}
	if cfg.CostScale == 0 {
		cfg.CostScale = 1
	}
	fs := &FS{
		cfg:     cfg,
		servers: make([]*sim.Resource, cfg.NumServers),
		mds:     sim.NewResource("pvfs-mds"),
		files:   make(map[string]*fileObj),
		rng:     rand.New(rand.NewSource(cfg.Seed*7919 + 13)),
		stats:   make([]storage.TargetStat, cfg.NumServers),
	}
	for i := range fs.servers {
		fs.servers[i] = sim.NewResource(fmt.Sprintf("pvfs%d", i))
	}
	if cfg.Faults.HasServerFails() {
		fs.rt = recovery.NewRetrier("pvfs", "server", cfg.Retry, fs.rng)
	}
	return fs
}

// SetObs attaches a metrics registry (nil detaches): every list-I/O request
// bumps storage.listio.requests. Observe-only.
func (fs *FS) SetObs(reg *obs.Registry) {
	if reg == nil {
		fs.obsReqs = nil
		return
	}
	fs.obsReqs = reg.Counter("storage.listio.requests")
}

// Stats returns a copy of the per-server service counters.
func (fs *FS) Stats() []storage.TargetStat {
	return append([]storage.TargetStat(nil), fs.stats...)
}

// Params reports native list-I/O, so the collective flush path batches its
// runs into one request instead of per-extent loops.
func (fs *FS) Params() storage.Params {
	return storage.Params{
		CostScale: fs.cfg.CostScale,
		Targets:   fs.cfg.NumServers,
		ListIO:    true,
		Injecting: fs.rt != nil,
	}
}

// Name identifies the backend kind ("listio" is the CLI spelling: the
// protocol difference, not the brand, is what the sweeps vary).
func (fs *FS) Name() string { return "listio" }

// Drain returns nil at once: the servers buffer nothing, so nothing can be
// lost.
func (fs *FS) Drain(r *mpi.Rank) error { return nil }

// RetryStats returns the retry-engine counters (all zero without a plan).
func (fs *FS) RetryStats() recovery.RetryStats { return fs.rt.Stats() }

// RetryStatsByJob returns the retry counters keyed by the issuing rank's
// JobID — empty on healthy runs, one job-0 bucket for single-job tools.
func (fs *FS) RetryStatsByJob() map[int]recovery.RetryStats { return fs.rt.StatsByJob() }

// SetQoS installs a server-side admission policy (nil detaches).
func (fs *FS) SetQoS(p qos.Policy) { fs.qos = p }

// SetLedger attaches an integrity ledger (nil detaches): every stored extent
// records a seeded digest at issue time. Free and draw-free.
func (fs *FS) SetLedger(l *storage.Ledger) { fs.ledger = l }

// Config returns the file system's parameters.
func (fs *FS) Config() Config { return fs.cfg }

// noise returns the multiplicative service-time factor for one request.
func (fs *FS) noise() float64 {
	if fs.cfg.Jitter == 0 {
		return 1
	}
	return 1 + fs.cfg.Jitter*(2*fs.rng.Float64()-1)
}

const trimEvery = 512

func (fs *FS) maybeTrim(r *mpi.Rank) {
	fs.sinceTrim++
	if fs.sinceTrim < trimEvery {
		return
	}
	fs.sinceTrim = 0
	w := r.P.MinClock()
	for _, s := range fs.servers {
		s.Trim(w)
	}
	fs.mds.Trim(w)
}

type fileObj struct {
	name   string
	stripe storage.Stripe
	data   *storage.ByteStore
}

// File is an open handle. Handles are cheap; every rank opens its own.
type File struct {
	fs  *FS
	obj *fileObj
}

var (
	_ storage.Backend = (*FS)(nil)
	_ storage.File    = (*File)(nil)
)

// Open opens (creating if necessary) the named file; the stripe layout
// applies only on create. Open costs metadata time, which serializes when
// many ranks open at once.
func (fs *FS) Open(r *mpi.Rank, name string, stripe storage.Stripe) storage.File {
	if stripe.Count <= 0 || stripe.Size <= 0 {
		panic("pvfs: invalid stripe layout")
	}
	if stripe.Count > fs.cfg.NumServers {
		stripe.Count = fs.cfg.NumServers
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

// Remove deletes a file's data; PVFS holds no per-file lock ledger.
func (fs *FS) Remove(name string) { delete(fs.files, name) }

// Stripe returns the file's stripe layout.
func (f *File) Stripe() storage.Stripe { return f.obj.stripe }

// Size returns the file length (highest byte written so far).
func (f *File) Size() int64 { return f.obj.data.Size() }

// Name returns the file's name.
func (f *File) Name() string { return f.obj.name }

// Contents returns the file's bytes in [0, Size) at no time cost.
func (f *File) Contents() []byte { return f.obj.data.Load(0, f.obj.data.Size()) }

// Peek returns the file's bytes in [off, off+n) at no time cost.
func (f *File) Peek(off, n int64) []byte { return f.obj.data.Load(off, n) }

// Punch zeroes stored bytes in [off, off+n) at no time cost — the staging
// tier's durability-revocation hook. The ledger is deliberately untouched.
func (f *File) Punch(off, n int64) { f.obj.data.Zero(off, n) }

// serverFor returns the server id serving stripe unit index u.
func (f *File) serverFor(u int64) int {
	s := f.obj.stripe
	return int((int64(s.Offset) + u%int64(s.Count)) % int64(len(f.fs.servers)))
}

// perServerBytes accumulates each extent's virtual bytes onto its servers,
// splitting at stripe-unit boundaries. The result maps server id to summed
// virtual bytes; iteration for timing walks server ids in ascending order so
// the jitter draws are deterministic.
func (f *File) perServerBytes(exts []storage.Extent) map[int]float64 {
	ss := f.obj.stripe.Size
	scale := f.fs.cfg.CostScale
	per := make(map[int]float64)
	for _, e := range exts {
		off, n := e.Off, e.Len
		for n > 0 {
			unit := off / ss
			l := (unit+1)*ss - off
			if l > n {
				l = n
			}
			per[f.serverFor(unit)] += float64(l) * scale
			off += l
			n -= l
		}
	}
	return per
}

// serveList books one list-I/O request on every touched server, all
// starting at virtual time `at`, and returns the slowest completion. One
// request (one overhead, one jitter draw) per server regardless of how many
// extents land on it — the list-I/O economics. Under an armed fault plan
// each server's portion runs through the retry engine on its own: that is
// the vectored call's scalar fallback — surviving servers serve on schedule
// while a failed server's portion retries alone; the completion covers
// every portion (retries included) and the first typed error is returned.
func (f *File) serveList(at float64, per map[int]float64, job int) (float64, error) {
	fs := f.fs
	done := at
	var firstErr error
	for s := 0; s < len(fs.servers); s++ {
		virt, ok := per[s]
		if !ok {
			continue
		}
		end, err := fs.serve(s, job, at, virt)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		done = max(done, end)
	}
	return done, firstErr
}

// serve books one server's portion of a request from virtual time at,
// through the retry engine when the plan injects server errors: a failed
// attempt pays the request overhead on the server.
func (fs *FS) serve(s, job int, at, virt float64) (float64, error) {
	if fs.rt == nil {
		return fs.book(s, job, at, virt), nil
	}
	return fs.rt.Do(s, job, at, func(at float64) (float64, bool, bool) {
		if failed, perm := fs.cfg.Faults.ServerErrorAt(s, at, fs.rng); failed {
			fs.stats[s].Errors++
			cost := fs.cfg.RequestOverhead * fs.noise()
			fs.stats[s].BusySecs += cost
			_, end := fs.servers[s].Acquire(at, cost)
			return end, true, perm
		}
		return fs.book(s, job, at, virt), false, false
	})
}

// book serves virt bytes on server s from virtual time at, through the
// admission policy, and returns the completion.
func (fs *FS) book(s, job int, at, virt float64) float64 {
	st := &fs.stats[s]
	st.Requests++
	st.Bytes += int64(virt)
	svc := (fs.cfg.RequestOverhead + virt/fs.cfg.ServerBandwidth) * fs.noise()
	st.BusySecs += svc
	if fs.qos != nil {
		at = fs.qos.Admit(s, job, at, svc)
	}
	_, end := fs.servers[s].Acquire(at, svc)
	if fs.obsReqs != nil {
		fs.obsReqs.Inc()
	}
	return end
}

// Submit issues q as one list-I/O request. A write's extents ship through
// the client's transmit NIC back-to-back (one summed transfer), then every
// touched server serves its portion; a read's servers serve first and the
// data crosses the receive NIC after the slowest. On a server failure that
// outlives the retry engine, a write stores NO bytes (all-or-nothing: a
// whole-request retry is idempotent) and a read returns none; the elapsed
// time of every portion, retries included, is still in the returned clock.
func (f *File) Submit(r *mpi.Rank, q *storage.Req) (float64, error) {
	for _, e := range q.Exts {
		if e.Off < 0 {
			panic("pvfs: negative offset")
		}
	}
	base := len(q.Bufs)
	if !q.Write {
		q.Bufs = slices.Grow(q.Bufs, len(q.Exts))
		for _, e := range q.Exts {
			q.Bufs = append(q.Bufs, f.obj.data.Load(e.Off, e.Len))
		}
	}
	total := storage.SumLen(q.Exts)
	if total == 0 {
		return r.Now(), nil
	}
	cl := r.W.Cluster
	r.P.Sync()
	now := r.Now()
	lat := cl.Config().Latency
	xfer := float64(total) * f.fs.cfg.CostScale / cl.Config().NICBandwidth
	var done float64
	var err error
	if q.Write {
		_, txEnd := cl.TxNIC(r.WorldRank()).Acquire(now, xfer)
		done, err = f.serveList(txEnd+lat, f.perServerBytes(q.Exts), r.JobID())
		done += lat
	} else {
		var served float64
		served, err = f.serveList(now+lat, f.perServerBytes(q.Exts), r.JobID())
		_, done = cl.RxNIC(r.WorldRank()).Acquire(served+lat, xfer)
	}
	f.fs.maybeTrim(r)
	done = max(done, now)
	if err != nil {
		q.Bufs = q.Bufs[:base]
		return done, err
	}
	if !q.Write {
		return done, nil
	}
	for i, e := range q.Exts {
		f.obj.data.Store(e.Off, q.Bufs[i][:e.Len])
		if f.fs.ledger != nil {
			f.fs.ledger.Record(f.obj.name, e.Off, q.Bufs[i][:e.Len])
		}
	}
	return done, nil
}
