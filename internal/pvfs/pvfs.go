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
	"slices"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/storage"
)

// FS is one PVFS instance on the lustre model's hardware (the shared
// storage.Farm), so backend comparisons isolate the protocol difference.
// Create one per run and share it across ranks; the engine serializes
// access (every operation begins with a sync).
type FS struct {
	*storage.Farm
	obsReqs *obs.Counter // storage.listio.requests (nil unless SetObs)
}

var (
	_ storage.Backend = (*FS)(nil)
	_ storage.File    = (*File)(nil)
)

// NewFS builds a file system. A plan carrying ServerFails arms the retry
// engine. Each server is an independent failure domain per Ching et al.: a
// vectored call falls back to scalar semantics — every surviving server's
// portion is served on schedule while the failed server's portion retries
// alone (capped exponential backoff, per-server breaker), and only
// permanence or budget exhaustion surfaces a typed *recovery.TargetError.
func NewFS(cfg storage.FarmConfig) *FS {
	var fails storage.FailFunc
	if cfg.Faults.HasServerFails() {
		fails = cfg.Faults.ServerErrorAt
	}
	return &FS{Farm: storage.NewFarm(cfg, "pvfs", "server", fails)}
}

// SetObs attaches a metrics registry (nil detaches): every list-I/O request
// bumps storage.listio.requests. Observe-only.
func (fs *FS) SetObs(reg *obs.Registry) {
	fs.obsReqs = nil
	if reg != nil {
		fs.obsReqs = reg.Counter("storage.listio.requests")
	}
}

// Params reports native list-I/O, so the collective flush path batches its
// runs into one request instead of per-extent loops.
func (fs *FS) Params() storage.Params { return fs.Farm.Params(true) }

// Name identifies the backend kind ("listio" is the CLI spelling: the
// protocol difference, not the brand, is what the sweeps vary).
func (fs *FS) Name() string { return "listio" }

// File is an open handle. Handles are cheap; every rank opens its own.
type File struct {
	*storage.Object
	fs *FS
}

// Open opens (creating if necessary) the named file; see storage.Farm.Open.
func (fs *FS) Open(r *mpi.Rank, name string, stripe storage.Stripe) storage.File {
	return &File{Object: fs.Farm.Open(r, name, stripe), fs: fs}
}

// serveList books one list-I/O request on every server exts touch, all
// starting at virtual time `at`, and returns the slowest completion. One
// request (one overhead, one jitter draw) per server regardless of how many
// extents land on it — the list-I/O economics — walked in ascending server
// order so the draws are deterministic. Under an armed fault plan each
// server's portion runs through the retry engine on its own: that is the
// vectored call's scalar fallback — surviving servers serve on schedule
// while a failed server's portion retries alone; the completion covers
// every portion (retries included) and the first typed error is returned.
func (f *File) serveList(at float64, exts []storage.Extent, job int) (float64, error) {
	done := at
	var firstErr error
	for s, virt := range f.Spread(exts) {
		if virt == 0 {
			continue
		}
		end, err := f.fs.serve(s, job, at, virt)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		done = max(done, end)
	}
	return done, firstErr
}

// serve books one server's portion of a request from virtual time at,
// through the farm's retry engine when the plan injects server errors.
func (fs *FS) serve(s, job int, at, virt float64) (float64, error) {
	if fs.Retrier == nil {
		return fs.book(s, job, at, virt), nil
	}
	return fs.Retry(s, job, at, func(at float64) float64 { return fs.book(s, job, at, virt) })
}

// book serves virt bytes on server s from virtual time at, through the
// admission policy, and returns the completion.
func (fs *FS) book(s, job int, at, virt float64) float64 {
	_, end := fs.Book(s, job, at, fs.Svc(s, virt))
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
			q.Bufs = append(q.Bufs, f.Peek(e.Off, e.Len))
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
	xfer := float64(total) * f.fs.Cfg.CostScale / cl.Config().NICBandwidth
	var done float64
	var err error
	if q.Write {
		_, txEnd := cl.TxNIC(r.WorldRank()).Acquire(now, xfer)
		done, err = f.serveList(txEnd+lat, q.Exts, r.JobID())
		done += lat
	} else {
		var served float64
		served, err = f.serveList(now+lat, q.Exts, r.JobID())
		_, done = cl.RxNIC(r.WorldRank()).Acquire(served+lat, xfer)
	}
	f.fs.Trim(r)
	done = max(done, now)
	if err != nil {
		q.Bufs = q.Bufs[:base]
		return done, err
	}
	if !q.Write {
		return done, nil
	}
	for i, e := range q.Exts {
		f.Store(e.Off, q.Bufs[i][:e.Len])
	}
	return done, nil
}
