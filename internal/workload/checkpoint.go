package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
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

// pieces lists rank me's file extents, step by step, in pattern order:
// one whole block per step when contiguous, BlockBytes/Interleave chunks
// per step when strided (chunk c of step s at stepBase + (c*n + me)*
// Interleave).
func (w CheckpointBurst) pieces(me, n, steps int) []datatype.Segment {
	chunk, count := w.BlockBytes, int64(1)
	if w.Interleave > 0 {
		chunk, count = w.Interleave, w.BlockBytes/w.Interleave
	}
	out := make([]datatype.Segment, 0, int64(steps)*count)
	for s := 0; s < steps; s++ {
		base := int64(s) * int64(n) * w.BlockBytes
		for c := int64(0); c < count; c++ {
			off := base + int64(me)*w.BlockBytes
			if w.Interleave > 0 {
				off = base + (c*int64(n)+int64(me))*w.Interleave
			}
			out = append(out, datatype.Segment{Off: off, Len: chunk})
		}
	}
	return out
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
	steps := max(w.Steps, 1)
	data := make([]byte, w.BlockBytes)
	// Under staging faults the closing drain is the loss-recovery barrier
	// over this rank's blocks (decided out here, as in dump, to keep the
	// measured closures' frames small).
	lossy := stagingFaults(r, env)
	var pieces []datatype.Segment
	if lossy {
		pieces = w.pieces(me, n, steps)
	}
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
		// tail the compute phases did not absorb. Under staging faults the
		// barrier can report lost extents; the burst's blocks are
		// regenerable from the fill pattern, so drainLost re-dumps and
		// retries until the checkpoint is whole.
		out.DrainSecs = measure(comm, func() {
			if lossy {
				drainLost(r, comm, env.FS, env.Stripe, name, pieces)
			} else {
				_ = env.FS.Drain(r) // no staging-node failures: nothing to lose
			}
		})
	})
	out.Result = Result{
		Elapsed:   elapsed,
		VirtBytes: w.BlockBytes * int64(steps) * int64(n) * scaleOf(env),
		Breakdown: f.Breakdown(),
		Plan:      f.LastPlan(),
	}
	if lossy {
		out.Recovery = GlobalRecovery(comm, f.Recovery())
	}
	return out
}

// Write is Run's Result.
func (w CheckpointBurst) Write(r *mpi.Rank, env Env, name string) Result {
	return w.Run(r, env, name).Result
}

// Check reads every step's block of this rank back through a fresh handle
// (after the drain the bytes must be byte-exact on the final tier,
// whatever the backend) and compares it to the pattern.
func (w CheckpointBurst) Check(r *mpi.Rank, env Env, name string) error {
	f := env.FS.Open(r, name, env.Stripe)
	return readBack(r, f, w.pieces(r.JobRank(), mpi.WorldComm(r).Size(), max(w.Steps, 1)))
}

// Verify is Check.
//
// Deprecated: use Check.
func (w CheckpointBurst) Verify(r *mpi.Rank, env Env, name string) error {
	return w.Check(r, env, name)
}
