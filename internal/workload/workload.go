// Package workload implements the paper's four benchmarks — IOR,
// MPI-Tile-IO, NAS BT-IO, and Flash I/O — plus the checkpoint burst, each
// behind one contract (Workload): Write renders a deterministic byte
// pattern through a file view over the ParColl stack, Check reads it back
// and reports the first wrong byte. The package also holds the measurement
// helpers the experiment harness uses.
//
// All sizes are *real* bytes; experiments running at paper scale shrink
// the real sizes by the file system's CostScale and the reported virtual
// bytes (and hence bandwidths) scale back up.
package workload

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/nbio"
	"repro/internal/recovery"
	"repro/internal/storage"
)

// Workload is what every benchmark here is: Write renders the workload's
// data into the named file collectively and returns this rank's Result;
// Check, after a barrier, reads this rank's bytes back and returns nil or
// the first mismatch (*MismatchError for data; plain errors for container
// metadata). All ranks of the job must call both.
type Workload interface {
	Write(r *mpi.Rank, env Env, name string) Result
	Check(r *mpi.Rank, env Env, name string) error
}

// MismatchError is a data byte that did not read back as written.
type MismatchError struct {
	Rank      int   // job rank that owns the byte
	Off       int64 // rank-local pattern offset (the PatternByte argument)
	Got, Want byte
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("rank %d: byte %d = %d, want %d", e.Rank, e.Off, e.Got, e.Want)
}

// Env bundles what every workload run needs.
type Env struct {
	FS     storage.Backend
	Stripe storage.Stripe
	Opts   core.Options
	// Ledger, when non-nil, is the integrity audit attached to FS: recovery
	// runners verify read-back against it after faulted runs.
	Ledger *storage.Ledger
}

// Result is one rank's view of a finished run.
type Result struct {
	Elapsed   float64 // seconds between the synchronized start and the global finish
	VirtBytes int64   // total virtual bytes moved across all ranks
	Breakdown mpiio.Breakdown
	Plan      core.Plan // how ParColl partitioned the last collective call
	// Overlap sums the split-collective overlap accounting across all ranks
	// (zero for blocking runs).
	Overlap mpiio.OverlapStats
	// Recovery aggregates the fail-stop recovery record across all ranks:
	// counters sum, TimeToRecover is the global maximum. Zero on healthy
	// runs — the recovery machinery is inert without a crash-carrying plan.
	Recovery recovery.FailoverStats
}

// Bandwidth returns the aggregate rate in bytes/second.
func (r Result) Bandwidth() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.VirtBytes) / r.Elapsed
}

// scaleOf returns the environment's virtual-bytes-per-real-byte factor.
func scaleOf(env Env) int64 {
	s := env.FS.Params().CostScale
	if s < 1 {
		return 1
	}
	return int64(s)
}

// measure runs fn between two global synchronization points and returns the
// elapsed global wall time (identical on every rank).
func measure(comm *mpi.Comm, fn func()) float64 {
	comm.Barrier()
	t0 := comm.MaxFinishTime()
	fn()
	return comm.MaxFinishTime() - t0
}

// GlobalOverlap sums per-rank overlap stats across the communicator
// (identical result everywhere).
func GlobalOverlap(comm *mpi.Comm, o mpiio.OverlapStats) mpiio.OverlapStats {
	v := comm.AllreduceFloat64([]float64{o.Hidden, o.Exposed}, mpi.OpSum)
	return mpiio.OverlapStats{Hidden: v[0], Exposed: v[1]}
}

// GlobalRecovery aggregates per-rank recovery stats across the communicator
// (identical result everywhere): counts and accumulated seconds sum; the
// time-to-recover metric reduces by max, since it is the worst single
// replanning span anywhere, not a total.
func GlobalRecovery(comm *mpi.Comm, s recovery.FailoverStats) recovery.FailoverStats {
	sums := comm.AllreduceFloat64([]float64{
		float64(s.Detections), float64(s.Failovers), float64(s.Reelections),
		float64(s.Degradations), s.DetectSecs, s.RecoverSecs,
	}, mpi.OpSum)
	ttr := comm.AllreduceFloat64([]float64{s.TimeToRecover}, mpi.OpMax)
	return recovery.FailoverStats{
		Detections:    uint64(sums[0]),
		Failovers:     uint64(sums[1]),
		Reelections:   uint64(sums[2]),
		Degradations:  uint64(sums[3]),
		DetectSecs:    sums[4],
		RecoverSecs:   sums[5],
		TimeToRecover: ttr[0],
	}
}

// MeanBreakdown averages a breakdown across the communicator (identical
// result everywhere).
func MeanBreakdown(comm *mpi.Comm, bd mpiio.Breakdown) mpiio.Breakdown {
	v := comm.AllreduceFloat64([]float64{bd.Sync, bd.Exchange, bd.IO, bd.Other}, mpi.OpSum)
	n := float64(comm.Size())
	return mpiio.Breakdown{Sync: v[0] / n, Exchange: v[1] / n, IO: v[2] / n, Other: v[3] / n}
}

// compare checks got against rank me's pattern starting at local offset
// local.
func compare(me int, got []byte, local int64) error {
	for i, b := range got {
		if want := PatternByte(me, local+int64(i)); b != want {
			return &MismatchError{Rank: me, Off: local + int64(i), Got: b, Want: want}
		}
	}
	return nil
}

// readBack reads each of this rank's file pieces through f and compares it
// to the pattern. Pieces are listed in pattern order: piece i holds the
// pattern bytes that follow piece i-1's.
func readBack(r *mpi.Rank, f storage.File, pieces []datatype.Segment) error {
	var local int64
	for _, p := range pieces {
		if err := compare(r.JobRank(), storage.Read(r, f, p.Off, p.Len), local); err != nil {
			return err
		}
		local += p.Len
	}
	return nil
}

// stagingFaults reports whether the run can lose staged bytes: an
// injecting backend under a plan that fails staging nodes.
func stagingFaults(r *mpi.Rank, env Env) bool {
	return env.FS.Params().Injecting && r.Fault().HasBBFails()
}

// drainLost is the loss-recovery barrier that closes a write under
// staging faults: a loss can land after the last collective call, when no
// write remains to surface it. It drains the backend; a reported staging
// loss makes every rank regenerate the lost bytes inside its own pieces
// (listed as for readBack; the data is a pure function of rank and
// offset) and rewrite them at write-through cost, then synchronize and
// retry, so the loss check after the barrier sees every rank's repair.
func drainLost(r *mpi.Rank, comm *mpi.Comm, fs storage.Backend, stripe storage.Stripe, name string, pieces []datatype.Segment) {
	for attempt := 0; ; attempt++ {
		err := fs.Drain(r)
		var sl *storage.StagingLostError
		if err != nil {
			if !errors.As(err, &sl) || sl.File != name || attempt >= 4 {
				panic(fmt.Sprintf("workload: drain of %q failed: %v", name, err))
			}
		}
		// Agree collectively whether anyone still sees a loss: a rank whose
		// barrier ran after the others' repairs healed everything must keep
		// iterating in lockstep with the ranks that are re-dumping.
		hit := int64(0)
		if sl != nil {
			hit = 1
		}
		if comm.AllreduceInt64([]int64{hit}, mpi.OpMax)[0] == 0 {
			return
		}
		if sl != nil {
			redump(r, fs.Open(r, name, stripe), sl.Lost, pieces)
		}
		comm.Barrier()
	}
}

// redump rewrites this rank's intersection of its pieces with the lost
// set, regenerated from the fill pattern, through the raw handle f.
// Across ranks the pieces partition the file, so every lost byte is
// re-dumped exactly once.
func redump(r *mpi.Rank, f storage.File, lost []storage.Extent, pieces []datatype.Segment) {
	me := r.JobRank()
	var local int64
	for _, p := range pieces {
		for _, e := range storage.Intersect(lost, []storage.Extent{{Off: p.Off, Len: p.Len}}) {
			seg := make([]byte, e.Len)
			Fill(seg, me, local+(e.Off-p.Off))
			// A not-yet-reported second loss can surface here; the report
			// consumes it, and the retry lands write-through on the
			// degraded node.
			for storage.TryWrite(r, f, e.Off, seg) != nil {
			}
		}
		local += p.Len
	}
}

// Fill writes a deterministic rank- and offset-dependent byte pattern.
func Fill(buf []byte, rank int, base int64) {
	for i := range buf {
		buf[i] = PatternByte(rank, base+int64(i))
	}
}

// PatternByte is the expected data byte at a rank-local offset.
func PatternByte(rank int, off int64) byte {
	return byte(int64(rank)*131 + off*7 + 17)
}

// frames is the step body TileIO and BTIO share: steps collective calls
// through one view, frame s at view-logical offset s*per, each step's
// compute run before a blocking call — or, with split collectives, between
// Begin and End, where it hides the call's I/O tail.
type frames struct {
	view    datatype.View
	per     int64 // bytes per rank per frame
	steps   int
	compute float64
	split   bool
	// settle closes a write with the staging-loss barrier (drainLost) when
	// the run has staging faults. TileIO sets it; BT-IO's dumps end at
	// their last collective call.
	settle bool
}

// dump runs a frame-dumping workload: it lays out this rank's frames
// (layout(me, n)), opens name on the job's ranks, issues every frame's
// call — a write first fills frame s from the pattern — and returns this
// rank's Result.
func dump(r *mpi.Rank, env Env, name string, write bool, layout func(me, n int) frames) Result {
	comm := mpi.WorldComm(r)
	me := r.JobRank()
	fr := layout(me, comm.Size())
	f := core.Open(comm, env.FS, name, env.Stripe, env.Opts)
	f.SetView(fr.view)
	var data []byte
	if write {
		data = make([]byte, fr.per)
	}
	// A write under staging faults closes with the loss-recovery barrier,
	// re-dumping lost bytes one filetype segment at a time. Both are
	// decided out here to keep the measured closure's frame small: it sits
	// under every collective call, and a larger one makes each rank's
	// goroutine stack grow (and be copied) once more.
	settle := write && fr.settle && stagingFaults(r, env)
	var pieces []datatype.Segment
	if settle {
		pieces = fr.segments()
	}
	elapsed := measure(comm, func() {
		for s := 0; s < fr.steps; s++ {
			off := int64(s) * fr.per
			if write {
				Fill(data, me, off)
			}
			var q *nbio.Request
			switch {
			case fr.split && write:
				q = f.WriteAllBegin(off, data)
			case fr.split:
				q = f.ReadAllBegin(off, fr.per)
			}
			if fr.compute > 0 {
				r.Compute(fr.compute)
			}
			switch {
			case q != nil:
				q.Wait() // WriteAllEnd and ReadAllEnd alike
			case write:
				f.WriteAtAll(off, data)
			default:
				f.ReadAtAll(off, fr.per)
			}
		}
		if settle {
			drainLost(r, comm, env.FS, env.Stripe, name, pieces)
		}
	})
	bd := f.Breakdown()
	var ovl mpiio.OverlapStats
	if fr.split {
		ovl = GlobalOverlap(comm, f.Overlap())
	}
	// The aggregation collective runs only when the plan could have produced
	// recovery work: a healthy run must not move a single extra message.
	var rec recovery.FailoverStats
	if r.Fault().HasCrashes() {
		rec = GlobalRecovery(comm, f.Recovery())
	}
	return Result{
		Elapsed:   elapsed,
		VirtBytes: fr.per * int64(fr.steps) * int64(comm.Size()) * scaleOf(env),
		Breakdown: bd,
		Plan:      f.LastPlan(),
		Overlap:   ovl,
		Recovery:  rec,
	}
}

// segments lists every frame's file pieces one filetype segment each, in
// pattern order: the pieces a re-dump rewrites.
func (fr frames) segments() []datatype.Segment {
	segs := fr.view.Filetype.Segments()
	ext := fr.view.Filetype.Extent()
	out := make([]datatype.Segment, 0, fr.steps*len(segs))
	for s := 0; s < fr.steps; s++ {
		for _, sg := range segs {
			out = append(out, datatype.Segment{Off: fr.view.Disp + int64(s)*ext + sg.Off, Len: sg.Len})
		}
	}
	return out
}
