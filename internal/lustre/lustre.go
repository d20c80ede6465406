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
	"slices"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Config describes the file system: the farm hardware it shares with the
// list-I/O model, plus the client-switch and tail costs that are lustre's
// own.
type Config struct {
	storage.FarmConfig
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
}

// DefaultConfig is the paper's test file system (storage.DefaultFarmConfig)
// with Lustre's client-switch and tail costs.
func DefaultConfig() Config {
	return Config{
		FarmConfig:    storage.DefaultFarmConfig(),
		SwitchPenalty: 1.5e-3,
		TailProb:      0.02,
		TailPenalty:   3e-2,
	}
}

// DefaultStripe mirrors the paper's experiments: 64 targets, 4 MB units.
func DefaultStripe() storage.Stripe { return storage.Stripe{Count: 64, Size: 4 << 20} }

// FS is one file system instance. Create one per simulation run and share
// it across ranks (the engine serializes access).
type FS struct {
	*storage.Farm
	cfg        Config
	lastClient []int // per OST: world rank of the previous requester

	// Pre-resolved obs instruments (nil unless SetObs armed them). The
	// healthy fast path pays one nil check per request.
	obsSvc  *obs.Histogram // per-request OST service time
	obsWait *obs.Histogram // per-request OST queue wait (Acquire start - arrival)
}

var (
	_ storage.Backend = (*FS)(nil)
	_ storage.File    = (*File)(nil)
)

// NewFS builds a file system. A plan carrying OSTFails arms the farm's
// retry engine; plans without them run bit-identical (and
// allocation-identical) to builds without the engine.
func NewFS(cfg Config) *FS {
	var fails storage.FailFunc
	if cfg.Faults != nil && len(cfg.Faults.OSTFails) > 0 {
		fails = cfg.Faults.OSTErrorAt
	}
	fs := &FS{
		Farm:       storage.NewFarm(cfg.FarmConfig, "lustre", "OST", fails),
		cfg:        cfg,
		lastClient: make([]int, cfg.Targets),
	}
	for i := range fs.lastClient {
		fs.lastClient[i] = -1
	}
	return fs
}

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
	if fs.Retrier != nil {
		fs.Retrier.ObsRetries, fs.Retrier.ObsOpens = retries, opens
	}
}

// svcTime returns the service time for a request of virt bytes on OST ost
// issued by client rank arriving at virtual time `at`, including jitter and
// the client-switch penalty. Under a fault plan, the base service time is
// scaled by the OST's degradation factor and a request arriving inside a
// downtime window additionally waits for the OST to come back up.
func (fs *FS) svcTime(ost, rank int, at, virt float64) float64 {
	svc := fs.Svc(ost, virt)
	st := fs.Stat(ost)
	if fs.cfg.Faults != nil {
		svc *= fs.cfg.Faults.OSTScale(ost)
		svc += fs.cfg.Faults.OSTDownDelay(ost, at)
	}
	if fs.lastClient[ost] != rank {
		if fs.lastClient[ost] >= 0 {
			svc += fs.cfg.SwitchPenalty
			st.Switches++
		}
		fs.lastClient[ost] = rank
	}
	if fs.cfg.TailProb > 0 && fs.Rng.Float64() < fs.cfg.TailProb {
		svc += fs.cfg.TailPenalty
		st.Tails++
	}
	if fs.obsSvc != nil {
		fs.obsSvc.Observe(svc)
	}
	return svc
}

// serve books one chunk's service on its OST, starting at virtual time `at`,
// and returns the completion time. The fast path — no injected OST errors —
// is one svcTime call and one booking, no extra draws. Under injection the
// chunk runs through the farm's retry engine.
func (fs *FS) serve(ost, rank, job int, at, virt float64) (float64, error) {
	if fs.Retrier == nil {
		return fs.book(ost, rank, job, at, virt), nil
	}
	return fs.Retry(ost, job, at, func(at float64) float64 {
		return fs.book(ost, rank, job, at, virt)
	})
}

// book serves one chunk on its OST from virtual time `at`, through the
// admission policy, and returns its completion.
func (fs *FS) book(ost, rank, job int, at, virt float64) float64 {
	wait, end := fs.Book(ost, job, at, fs.svcTime(ost, rank, at, virt))
	if fs.obsWait != nil {
		fs.obsWait.Observe(wait)
	}
	return end
}

// File is an open handle. Handles are cheap; every rank opens its own.
type File struct {
	*storage.Object
	fs *FS
}

// Open opens (creating if necessary) the named file; see storage.Farm.Open.
// The handle is returned as the backend seam's interface type (the concrete
// handle is *File).
func (fs *FS) Open(r *mpi.Rank, name string, stripe storage.Stripe) storage.File {
	return &File{Object: fs.Farm.Open(r, name, stripe), fs: fs}
}

// Params returns the backend properties the I/O protocol layers consult.
func (fs *FS) Params() storage.Params { return fs.Farm.Params(false) }

// Name identifies the backend kind for reports and sweeps.
func (fs *FS) Name() string { return "lustre" }

// Submit issues q. Lustre has no native list I/O, so every extent's
// stripe chunks go out as RPCs of their own, all from the rank's current
// clock: a write chunk ships through the client's transmit NIC, then its
// OST serves it and acknowledges; a read chunk's OST serves it, then the
// data crosses the receive NIC. The request completes when its slowest
// chunk does. Transient injected failures are absorbed by the retry engine
// and cost only virtual time. A *recovery.TargetError (an exhausted retry
// budget) stops the request: no further chunk is issued, a write
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
	nic := cl.TxNIC(r.WorldRank())
	if !q.Write {
		nic = cl.RxNIC(r.WorldRank())
	}
	r.P.Sync()
	now := r.Now()
	done := now
	var err error
	for _, e := range q.Exts {
		if e.Len > 0 && e.Off < 0 {
			panic("lustre: negative offset")
		}
		f.Chunks(e.Off, e.Len, func(_, l int64, ost int) {
			if err != nil {
				return
			}
			virt := float64(l) * f.fs.Cfg.CostScale
			at := now + lat
			if q.Write {
				_, txEnd := nic.Acquire(now, virt/nicBW)
				at = txEnd + lat
			}
			end, serr := f.fs.serve(ost, r.WorldRank(), r.JobID(), at, virt)
			fin := end + lat
			if serr != nil {
				err = serr
			} else if !q.Write {
				_, fin = nic.Acquire(end+lat, virt/nicBW)
			}
			done = max(done, fin)
		})
	}
	f.fs.Trim(r)
	if err != nil {
		return done, err
	}
	if !q.Write {
		q.Bufs = slices.Grow(q.Bufs, len(q.Exts))
	}
	for i, e := range q.Exts {
		switch {
		case !q.Write:
			q.Bufs = append(q.Bufs, f.Peek(e.Off, e.Len))
		case e.Len > 0:
			f.Store(e.Off, q.Bufs[i][:e.Len])
		}
	}
	return done, nil
}
