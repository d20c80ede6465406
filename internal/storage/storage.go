// Package storage defines the backend seam between the I/O protocol layers
// (mpiio, core, nbio consumers) and the storage models that serve them. The
// seam was carved out of internal/lustre, which remains the reference
// implementation; internal/pvfs (a lockless list-I/O server in the mold of
// PVFS) and internal/bb (a node-local burst-buffer staging tier) plug in
// behind the same interface.
//
// Every access is one Req — a list of extents to read or write — handed to
// File.Submit (DESIGN.md §14). A contiguous access is the one-extent case,
// as in Ching et al.'s list I/O. Contract highlights:
//
//   - Data is stored for real at issue time: after Submit returns, a
//     write's bytes are durable in the backend's store and the caller may
//     reuse its buffers. Reads therefore see preceding writes of the same
//     proc regardless of virtual completion times.
//   - Submit books the request's simulated resources from the rank's clock
//     and returns the virtual completion time without charging it. The
//     blocking form charges ClassIO for the wait (Do, Write, Read); the
//     nonblocking layer accounts the tail itself (Must).
//   - Submit returns the typed error the retry engine could not absorb; a
//     failed write stores nothing, so a whole-request retry is idempotent.
//     Must-succeed callers panic on it (Must, Do, Write, Read).
//   - A multi-extent Req costs what its extents would cost issued one by
//     one from the same clock, except on backends whose Params().ListIO is
//     true; only for those does mpiio batch its runs into one Req.
//   - Determinism: all service-time noise must come from seeded per-backend
//     RNG consumed in engine-serialized order, so a run is a pure function
//     of (config, workload, seed).
package storage

import (
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/recovery"
)

// Stripe is a file's striping layout, fixed at create time.
type Stripe struct {
	Count int   // number of targets the file stripes over, from target 0
	Size  int64 // stripe unit in bytes
}

// Extent is one (offset, length) run of a vectored list-I/O request.
type Extent struct {
	Off, Len int64
}

// End returns the exclusive upper bound of the extent.
func (e Extent) End() int64 { return e.Off + e.Len }

// TargetStat aggregates one storage target's service counters (an OST for
// lustre, a server for pvfs).
type TargetStat struct {
	Requests int64
	Bytes    int64 // virtual bytes served
	Switches int64 // client alternations (lock/seek penalties paid)
	Tails    int64 // heavy-tail events
	Errors   int64 // injected request failures (before retry)
	BusySecs float64
}

// Params describes a backend's protocol-relevant properties — the subset of
// its configuration the I/O layers consult (the interface's "Config").
type Params struct {
	// CostScale is the virtual-bytes-per-real-byte factor of the cost model.
	CostScale float64
	// ListIO reports native list I/O: a multi-extent Req costs one request
	// round-trip per touched target plus the summed transfer, instead of a
	// per-extent service call each. The collective flush path batches its
	// runs into one Req only when this is set, so backends without native
	// support keep their per-extent request accounting bit-exact.
	ListIO bool
	// Injecting reports that a fault plan injects request errors, i.e.
	// Submit can return non-nil. Staging tiers consult it to route Try
	// requests through the under-backend's error path.
	Injecting bool
}

// Req is one storage request: a list of extents to write or read. For a
// write, Bufs[i] lands at Exts[i]. For a read, Submit appends one buffer
// per extent to Bufs. The extents of a multi-extent Req must be sorted and
// non-overlapping (the collective flush merges before issuing). Callers on
// hot paths keep one Req and reuse its slices.
type Req struct {
	Write bool
	Exts  []Extent
	Bufs  [][]byte
	// Try marks a caller that handles the typed errors itself (the resilient
	// paths). Only a staging tier reads it: a Try request surfaces pending
	// staging losses first and, over an injecting under-backend, goes
	// through the under-backend instead of staging memory.
	Try bool
}

// File is an open handle on a backend. Handles are cheap; every rank opens
// its own (like an MPI file handle or a Lustre client).
type File interface {
	// Stripe returns the file's layout, as fixed at create time.
	Stripe() Stripe
	// Size returns the file length (highest byte written so far).
	Size() int64

	// Submit issues q: it books q's resources from the rank's clock and
	// returns the virtual completion time without charging it. A write
	// stores its bytes at issue; a read appends its data to q.Bufs. err is
	// whatever the backend's retry engine could not absorb; a failed write
	// stores nothing and a failed read appends nothing.
	Submit(r *mpi.Rank, q *Req) (done float64, err error)

	// Peek returns the file's bytes in [off, off+n) with no simulated time
	// cost — the staging tier serves buffer hits from it, and tests verify
	// contents through it.
	Peek(off, n int64) []byte
	// Contents returns the file's bytes in [0, Size) at no time cost.
	Contents() []byte

	// Punch zeroes any stored bytes in [off, off+n) without growing the
	// file or charging time — the fault layer's hook for revoking
	// durability when a staging node dies with undrained extents: the range
	// reads as zeroes until re-dumped, so recovery cannot silently pass on
	// stale bytes. An attached integrity Ledger is deliberately left
	// untouched; it keeps the acknowledged contents re-dump must restore.
	Punch(off, n int64)
}

// LossReporter is the optional File capability the collective layer uses to
// repair staging losses: implemented by backends that can lose
// acknowledged-but-staged data (the bb tier). LostExtents processes any
// staging-node failures due by the rank's current virtual time and returns
// the file's punched, not-yet-re-dumped extents (sorted, coalesced). The
// caller re-dumps its own intersection through writes, which heal the lost
// set as they land.
type LossReporter interface {
	LostExtents(r *mpi.Rank) []Extent
}

// Backend is one storage system instance. Create one per simulation run and
// share it across ranks; implementations serialize access through the
// engine (every operation begins with an engine sync, as lustre's do).
type Backend interface {
	// Open opens (creating if necessary) the named file. The stripe layout
	// applies only on create. Open costs metadata-service time.
	Open(r *mpi.Rank, name string, stripe Stripe) File
	// Drain blocks (in virtual time) until every buffered write involving
	// the calling rank's node is durable on the final tier, charging the
	// exposed wait to ClassIO. After the barrier it reports any staged data
	// the backend has lost and not yet seen re-dumped, as a typed
	// *StagingLostError. A pass-through backend returns nil at once.
	Drain(r *mpi.Rank) error
	// Stats returns a copy of the per-target service counters.
	Stats() []TargetStat
	// RetryStats returns the backend's retry-engine counters — attempts,
	// failures, backoff time — summed over its layers (a staging tier adds
	// its drain-retry work to the under-backend's). All zero when no fault
	// plan injects errors into this backend.
	RetryStats() recovery.RetryStats
	// SetObs attaches a metrics registry (nil detaches). Observe-only: an
	// instrumented run is bit-identical to a bare one.
	SetObs(reg *obs.Registry)
	// SetLedger attaches an integrity ledger (nil detaches): every store
	// records a seeded digest of the written extent at issue time, for
	// checksum-verified read-back in recovery tests. Recording is free in
	// virtual time and draw-free. Staging tiers forward the ledger to the
	// under-backend that performs their actual stores.
	SetLedger(l *Ledger)
	// SetQoS installs a server-side admission policy (nil detaches): every
	// request's earliest service start is shaped by Admit, keyed by the
	// issuing rank's JobID, before the target's ledger books it. Staging
	// tiers forward the policy to the under-backend whose targets are the
	// shared contention point. A nil policy is the unshaped fast path and
	// runs bit-identically to pre-QoS builds; qos.NewFIFO shapes nothing
	// but keeps per-job usage accounting.
	SetQoS(p qos.Policy)
	// RetryStatsByJob returns the retry-engine counters keyed by the JobID
	// of the issuing rank, so interference under faults is attributable.
	// Backends return only jobs that recorded events — a healthy run's map
	// is empty, and single-job tools degrade to one job-0 bucket (their
	// ranks all carry JobID 0). Aggregate RetryStats stays authoritative;
	// per-job buckets sum to it, except counters a staging tier accrues on
	// node-scoped background drains, which have no issuing job and stay
	// aggregate-only.
	RetryStatsByJob() map[int]recovery.RetryStats
	// Params returns the backend's protocol-relevant properties.
	Params() Params
	// Name identifies the backend kind ("lustre", "listio", "bb").
	Name() string
}
