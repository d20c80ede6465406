package workload

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// CheckpointBurst models a defensive-checkpointing application: every step
// computes for Compute seconds, then collectively dumps a contiguous
// per-rank block into the shared checkpoint file (the N-1 pattern). It is
// the scenario a burst-buffer staging tier exists for — the write call
// should cost memory speed and the drain should hide under the next step's
// compute — so unlike the paper workloads it reports the write-call spans
// separately from end-to-end elapsed, and finishes with a Drain barrier
// that forces every staged byte durable before the read-back.
type CheckpointBurst struct {
	BlockBytes int64   // real bytes per rank per checkpoint step
	Steps      int     // checkpoint steps
	Compute    float64 // seconds of per-rank compute before each dump
	// Interleave, when positive, stripes each rank's per-step block across
	// the step's file range in Interleave-byte chunks (the classic strided
	// N-1 checkpoint) instead of one contiguous block: chunk c of rank me
	// lands at stepBase + (c*n + me)*Interleave. Strided dumps force the
	// collective exchange phase, giving subgroup partitioning structure to
	// confine — contiguous dumps degenerate to disjoint per-rank domains
	// where the group count cannot matter. Must divide BlockBytes.
	Interleave int64
}

// chunkSize is the contiguous unit of this rank's data in the file: the
// whole block when contiguous, one interleave chunk when strided.
func (w CheckpointBurst) chunkSize() int64 {
	if w.Interleave > 0 {
		return w.Interleave
	}
	return w.BlockBytes
}

// chunks is how many file extents one step's block splits into.
func (w CheckpointBurst) chunks() int64 {
	if w.Interleave > 0 {
		return w.BlockBytes / w.Interleave
	}
	return 1
}

// chunkAt returns the file offset of chunk c of rank me's step-s block.
func (w CheckpointBurst) chunkAt(me, n, s int, c int64) int64 {
	if w.Interleave <= 0 {
		return (int64(s)*int64(n) + int64(me)) * w.BlockBytes
	}
	return int64(s)*int64(n)*w.BlockBytes + (c*int64(n)+int64(me))*w.Interleave
}

// view builds the strided file view (Interleave > 0 only): frame s of a
// count x n chunk grid, this rank owning column me.
func (w CheckpointBurst) view(me, n int) datatype.View {
	if w.BlockBytes%w.Interleave != 0 {
		panic(fmt.Sprintf("workload: checkpoint Interleave %d must divide BlockBytes %d", w.Interleave, w.BlockBytes))
	}
	count := w.BlockBytes / w.Interleave
	sub := datatype.NewSubarray(
		[]int64{count, int64(n)},
		[]int64{count, 1},
		[]int64{0, int64(me)},
		w.Interleave,
	)
	return datatype.View{Disp: 0, Filetype: sub}
}

// CheckpointResult is a Result plus the burst-specific spans.
type CheckpointResult struct {
	Result
	// WriteSecs sums the global spans of the collective write calls alone —
	// the time the application was stalled inside a dump. With a staging
	// tier this is what shrinks; the drain moves under compute.
	WriteSecs float64
	// DrainSecs is the global span of the final Drain barrier: the staged
	// tail that did NOT fit under compute. Pass-through backends pay only
	// the barrier itself.
	DrainSecs float64
}

// Run executes the burst loop and returns this rank's result (spans are
// global, identical on every rank).
func (w CheckpointBurst) Run(r *mpi.Rank, env Env, name string) CheckpointResult {
	comm := mpi.WorldComm(r)
	f := core.Open(comm, env.FS, name, env.Stripe, env.Opts)
	me := r.JobRank()
	n := comm.Size()
	if w.Interleave > 0 {
		f.SetView(w.view(me, n))
	}
	steps := w.Steps
	if steps < 1 {
		steps = 1
	}
	data := make([]byte, w.BlockBytes)
	var out CheckpointResult
	elapsed := measure(comm, func() {
		for s := 0; s < steps; s++ {
			if w.Compute > 0 {
				r.Compute(w.Compute)
			}
			Fill(data, me, int64(s)*w.BlockBytes)
			// Contiguous layout addresses the file directly; the strided
			// layout addresses frame s of the interleave view.
			off := (int64(s)*int64(n) + int64(me)) * w.BlockBytes
			if w.Interleave > 0 {
				off = int64(s) * w.BlockBytes
			}
			out.WriteSecs += measure(comm, func() { f.WriteAtAll(off, data) })
		}
		// Make the checkpoint durable: staged backends charge whatever drain
		// tail the compute phases did not absorb. Under a staging-failure
		// plan the barrier can report lost extents; the burst's blocks are
		// regenerable from the fill pattern, so the loop re-dumps and
		// retries until the checkpoint is whole.
		out.DrainSecs = measure(comm, func() { w.drain(r, comm, env, name, steps) })
	})
	out.Result = Result{
		Elapsed:   elapsed,
		VirtBytes: w.BlockBytes * int64(steps) * int64(n) * scaleOf(env),
		Breakdown: f.Breakdown(),
		Plan:      f.LastPlan(),
		Metrics:   snapshotMetrics(env),
	}
	if env.FS.Params().Injecting && env.Opts.Run.Fault.HasBBFails() {
		out.Recovery = GlobalRecovery(comm, f.Recovery())
	}
	return out
}

// drain is the durability barrier. Without staging-node failures it is
// exactly env.FS.Drain, which then has no loss to report. With them, a
// reported staging loss makes every rank regenerate the lost bytes inside
// its own blocks (checkpoint data is a pure function of rank and offset)
// and rewrite them at honest write-through cost, then synchronize and
// retry the barrier — so the loss check after the barrier sees every
// rank's repair.
func (w CheckpointBurst) drain(r *mpi.Rank, comm *mpi.Comm, env Env, name string, steps int) {
	if !(env.FS.Params().Injecting && env.Opts.Run.Fault.HasBBFails()) {
		_ = env.FS.Drain(r) // no staging-node failures: nothing to lose
		return
	}
	for attempt := 0; ; attempt++ {
		err := env.FS.Drain(r)
		var sl *storage.StagingLostError
		if err != nil {
			if !errors.As(err, &sl) || sl.File != name || attempt >= 4 {
				panic(fmt.Sprintf("checkpoint: drain of %q failed: %v", name, err))
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
			w.redump(r, env, name, sl.Lost, comm.Size(), steps)
		}
		comm.Barrier()
	}
}

// redump rewrites this rank's intersection with the lost set: for each of
// its per-step blocks, the overlapping ranges are regenerated from the fill
// pattern and written back through the erroring path. Across ranks the
// blocks partition the file, so every lost byte is re-dumped exactly once.
func (w CheckpointBurst) redump(r *mpi.Rank, env Env, name string, lost []storage.Extent, n, steps int) {
	f := env.FS.Open(r, name, env.Stripe)
	me := r.JobRank()
	for s := 0; s < steps; s++ {
		for c := int64(0); c < w.chunks(); c++ {
			off := w.chunkAt(me, n, s, c)
			local := int64(s)*w.BlockBytes + c*w.chunkSize()
			for _, e := range storage.Intersect(lost, []storage.Extent{{Off: off, Len: w.chunkSize()}}) {
				seg := make([]byte, e.Len)
				Fill(seg, me, local+(e.Off-off))
				for {
					// A not-yet-reported second loss can surface here; the
					// report consumes it, and the retry lands write-through
					// on the degraded node.
					if werr := storage.TryWrite(r, f, e.Off, seg); werr == nil {
						break
					}
				}
			}
		}
	}
}

// Verify checks every step's block of this rank against the fill pattern,
// reading back through a fresh handle (after a Drain the bytes must be
// byte-exact on the final tier regardless of backend).
func (w CheckpointBurst) Verify(r *mpi.Rank, env Env, name string) error {
	f := env.FS.Open(r, name, env.Stripe)
	me := r.JobRank()
	n := mpi.WorldComm(r).Size()
	steps := w.Steps
	if steps < 1 {
		steps = 1
	}
	for s := 0; s < steps; s++ {
		for c := int64(0); c < w.chunks(); c++ {
			off := w.chunkAt(me, n, s, c)
			local := int64(s)*w.BlockBytes + c*w.chunkSize()
			got := storage.Read(r, f, off, w.chunkSize())
			for i, b := range got {
				want := PatternByte(me, local+int64(i))
				if b != want {
					return fmt.Errorf("rank %d step %d byte %d (file off %d) = %d, want %d",
						me, s, local+int64(i), off+int64(i), b, want)
				}
			}
		}
	}
	return nil
}
