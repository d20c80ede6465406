// Package mpi implements an MPI-like message-passing runtime on top of the
// deterministic virtual-time engine in internal/sim and the machine model
// in internal/cluster.
//
// Ranks are simulated procs; point-to-point transfers book NIC time on the
// sending and receiving nodes, and collectives are built from point-to-point
// messages using the classical algorithms (dissemination barrier, binomial
// broadcast/reduce, Bruck allgather and alltoall). Collective cost therefore
// *emerges* from latency, bandwidth, and process skew — which is exactly the
// "synchronization cost" the ParColl paper measures.
//
// Every operation attributes its elapsed virtual time to the rank's current
// profiling class (see Class), so higher layers can reproduce the paper's
// time breakdown of collective I/O into synchronization, data exchange, and
// file I/O.
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// World describes one simulated MPI job.
type World struct {
	Cluster *cluster.Cluster
	coll    map[collKey]*collSlot // in-flight rendezvous collectives
}

// Rank is one MPI process. It wraps the underlying sim proc and carries the
// profiling state. A Rank is only valid inside the body passed to Run.
type Rank struct {
	P *sim.Proc
	W *World

	prof   Prof
	class  Class
	depth  int // public-op nesting depth; only depth 0 records time
	tracer *obs.Recorder
	reg    *obs.Registry

	// Job namespace (DESIGN.md §16). Single-job runs leave it disarmed:
	// jobMembers nil means the rank belongs to job 0 spanning the whole
	// world, and every Job* accessor degrades to its World* counterpart —
	// bit-identical to the pre-tenancy runtime. The tenancy layer arms it
	// per rank before the workload body runs, making WorldComm return the
	// job's communicator and giving the storage service loops a JobID to
	// key QoS admission and per-job accounting on.
	jobID      int
	jobMembers []int // world ranks of this rank's job, ascending; nil = all
	jobRank    int   // index of this rank within jobMembers

	// Pre-resolved per-level point-to-point instruments (nil when no
	// registry is attached): every message through sendOwned counts under
	// intra or inter depending on whether source and destination share a
	// node, making the cross-NIC traffic reduction of two-level collectives
	// observable rather than asserted.
	p2pIntraMsgs, p2pIntraBytes *obs.Counter
	p2pInterMsgs, p2pInterBytes *obs.Counter
}

// SetTracer attaches an event recorder: every top-level operation emits a
// span labeled with its profiling class, and ChargeIO emits io spans. Pass
// nil to detach. Share one recorder across the ranks of a run (the engine
// serializes access).
func (r *Rank) SetTracer(rec *obs.Recorder) { r.tracer = rec }

// Tracer returns the attached event recorder (nil when none).
func (r *Rank) Tracer() *obs.Recorder { return r.tracer }

// Obs returns the attached metrics registry (nil when none).
func (r *Rank) Obs() *obs.Registry { return r.reg }

// Fault returns the run's fault plan, the one RunPlan installed in the
// cluster (nil on a healthy run or under a zero plan).
func (r *Rank) Fault() *fault.Plan { return r.W.Cluster.Config().Faults }

// SetObs attaches a metrics registry: every top-level collective counts its
// calls and payload bytes under "mpi.coll.<op>.{calls,bytes}". Pass nil to
// detach. Like SetTracer, the registry only observes — it never advances
// clocks or draws randomness — so an instrumented run is bit-identical in
// virtual time to a bare one. Share one registry across the ranks of a run
// (the engine serializes access).
func (r *Rank) SetObs(reg *obs.Registry) {
	r.reg = reg
	if reg == nil {
		r.p2pIntraMsgs, r.p2pIntraBytes = nil, nil
		r.p2pInterMsgs, r.p2pInterBytes = nil, nil
		return
	}
	r.p2pIntraMsgs = reg.Counter("mpi.p2p.intra.msgs")
	r.p2pIntraBytes = reg.Counter("mpi.p2p.intra.bytes")
	r.p2pInterMsgs = reg.Counter("mpi.p2p.inter.msgs")
	r.p2pInterBytes = reg.Counter("mpi.p2p.inter.bytes")
}

// noteColl counts one top-level collective call. Nested collectives (a
// Bcast inside an Allreduce) are not double-counted: only depth-0 entries
// record, mirroring how begin/end attribute time.
func (r *Rank) noteColl(op string, bytes int64) {
	if r.reg == nil || r.depth != 0 {
		return
	}
	r.reg.Counter("mpi.coll." + op + ".calls").Inc()
	if bytes > 0 {
		r.reg.Counter("mpi.coll." + op + ".bytes").Add(uint64(bytes))
	}
}

// Run executes body on nprocs ranks over a cluster built from ccfg and
// returns the maximum virtual finish time in seconds. The run is
// deterministic for a given seed.
func Run(nprocs int, ccfg cluster.Config, seed int64, body func(r *Rank)) float64 {
	end, _ := RunPlan(nprocs, ccfg, seed, nil, body)
	return end
}

// RunPlan is Run under a fault plan, returning the engine's scheduler
// counters as well (harnesses report simulator throughput from them): the
// plan's compute stragglers and delivery jitter are installed as the
// engine's perturber, and its NIC-path degradation is threaded into the
// cluster config. A nil or zero plan runs bit-identically to Run — no
// perturbation machinery is engaged at all. (OST faults live in the lustre
// config; see lustre.Config.Faults.) Determinism holds for any plan: all
// perturbation randomness comes from generators seeded by `seed`.
func RunPlan(nprocs int, ccfg cluster.Config, seed int64, plan *fault.Plan, body func(r *Rank)) (float64, sim.Stats) {
	scfg := sim.Config{Seed: seed}
	if !plan.IsZero() {
		scfg.Perturber = plan
		ccfg.Faults = plan
	}
	w := &World{
		Cluster: cluster.New(nprocs, ccfg),
		coll:    make(map[collKey]*collSlot),
	}
	e := sim.NewEngine(scfg)
	end := e.Run(nprocs, func(p *sim.Proc) {
		body(&Rank{P: p, W: w})
	})
	return end, e.Stats()
}

// RunPlanWorkers is RunPlan; the worker count is ignored.
//
// Deprecated: the engine is serial. Call RunPlan.
func RunPlanWorkers(nprocs int, ccfg cluster.Config, seed int64, plan *fault.Plan, workers int, body func(r *Rank)) (float64, sim.Stats) {
	return RunPlan(nprocs, ccfg, seed, plan, body)
}

// WorldRank returns the rank's id in the global job.
func (r *Rank) WorldRank() int { return r.P.ID() }

// WorldSize returns the global number of ranks.
func (r *Rank) WorldSize() int { return r.W.Cluster.NumProcs() }

// SetJob arms the rank's job namespace: id is the JobID the storage layers
// key QoS and accounting on, members the ascending world ranks of the job
// (which must include this rank). From here on WorldComm returns the job's
// communicator, so workload code written against "the world" runs unchanged
// inside a multi-tenant trace. Call before any communication.
func (r *Rank) SetJob(id int, members []int) {
	me := -1
	for i, w := range members {
		if w == r.WorldRank() {
			me = i
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("mpi: SetJob(%d): rank %d not in members", id, r.WorldRank()))
	}
	r.jobID = id
	r.jobMembers = members
	r.jobRank = me
}

// JobID returns the rank's job id (0 when no namespace is armed — the
// single-job degenerate case every pre-tenancy tool runs in).
func (r *Rank) JobID() int { return r.jobID }

// JobRank returns the rank's index within its job (WorldRank when no
// namespace is armed). Workloads use it as their data-pattern identity so a
// job's file contents are independent of where the trace placed it.
func (r *Rank) JobRank() int {
	if r.jobMembers == nil {
		return r.WorldRank()
	}
	return r.jobRank
}

// JobMembers returns the world ranks of the rank's job in job-rank order
// (nil when no namespace is armed; shared slice — do not modify).
func (r *Rank) JobMembers() []int { return r.jobMembers }

// Now returns the rank's virtual clock in seconds.
func (r *Rank) Now() float64 { return r.P.Now() }

// Compute charges d seconds of local computation to the rank.
func (r *Rank) Compute(d float64) { r.P.Advance(d) }

// Class labels where a rank's time goes, mirroring the paper's breakdown of
// collective I/O processing (Figure 2).
type Class int

const (
	// ClassOther is everything not otherwise attributed.
	ClassOther Class = iota
	// ClassSync is time in collective operations (allgather, alltoall,
	// allreduce, barrier) — the paper's "synchronization".
	ClassSync
	// ClassExchange is time in point-to-point data exchange.
	ClassExchange
	// ClassIO is time spent in file reads/writes.
	ClassIO
	// NumClasses is the number of profiling classes.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassOther:
		return "other"
	case ClassSync:
		return "sync"
	case ClassExchange:
		return "exchange"
	case ClassIO:
		return "io"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Prof accumulates a rank's virtual time per class plus traffic counters.
type Prof struct {
	Times [NumClasses]float64
	Msgs  int64
	Bytes int64
}

// Total returns the sum of all class times.
func (p *Prof) Total() float64 {
	var t float64
	for _, v := range p.Times {
		t += v
	}
	return t
}

// SetClass switches the rank's active profiling class, returning the
// previous one so callers can restore it.
func (r *Rank) SetClass(c Class) Class {
	old := r.class
	r.class = c
	return old
}

// ChargeIO attributes d seconds to ClassIO and advances the clock; the
// lustre layer reports completed I/O waits through this.
func (r *Rank) ChargeIO(d float64) {
	if r.tracer != nil {
		r.tracer.Add(r.WorldRank(), ClassIO.String(), r.P.Now(), r.P.Now()+d, "")
	}
	r.P.Advance(d)
	r.prof.Times[ClassIO] += d
}

// Prof returns the rank's accumulated profile.
func (r *Rank) Prof() *Prof { return &r.prof }

// begin/end bracket a public operation so elapsed time lands in the current
// class exactly once even when collectives nest.
func (r *Rank) begin() float64 {
	r.depth++
	return r.P.Now()
}

func (r *Rank) end(t0 float64) {
	r.depth--
	if r.depth == 0 {
		r.prof.Times[r.class] += r.P.Now() - t0
		if r.tracer != nil && r.P.Now() > t0 {
			r.tracer.Add(r.WorldRank(), r.class.String(), t0, r.P.Now(), "")
		}
	}
}
