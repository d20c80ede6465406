package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// BackendPoint is one backend's run of the strided IOR workload — the
// noncontiguous pattern where list-I/O pays off: every flush round's dirty
// set is many extents, which the lustre model serves one RPC each and the
// listio farm serves in one request per touched server.
type BackendPoint struct {
	Backend   string
	Elapsed   float64 // end-to-end seconds
	BW        float64 // bytes/second at the workload's virtual size
	Requests  int64   // storage requests served (per-target sum)
	VirtBytes int64   // virtual bytes served by the targets (conservation check)
}

// BackendSweep runs the strided IOR write — independent I/O, the paper's
// "w/o Coll" baseline, where every transfer is a pile of noncontiguous
// segments — on each named backend at the preset's IOR geometry, and
// returns one point per backend, plus a byte-exact read-back verification
// on every run. The request counts are the acceptance handle: listio's
// vectored requests must serve strictly fewer server round-trips than
// lustre's per-extent ones while the target-served bytes agree.
func (p Preset) BackendSweep(nprocs int, backends []string) []BackendPoint {
	out := make([]BackendPoint, len(backends))
	ForEachPoint(len(backends), nprocs, func(i int) {
		b := backends[i]
		q := p
		q.Backend = b
		env := EnvFor(q, q.IORScale, core.Options{})
		w := workload.IOR{Block: p.IORBlock, Transfer: p.IORTransfer, Strided: true}
		out[i] = BackendPoint{Backend: b}
		pt := &out[i]
		q.run(nprocs, func(r *mpi.Rank) {
			res := w.WriteIndependent(r, env, "bsweep")
			if err := w.Check(r, env, "bsweep"); err != nil {
				m := err.(*workload.MismatchError) // IOR has no metadata to fail
				panic(fmt.Sprintf("backend %s: rank %d data mismatch at %d", b, m.Rank, m.Off))
			}
			if r.WorldRank() == 0 {
				pt.Elapsed = res.Elapsed
				pt.BW = res.Bandwidth()
			}
		})
		for _, st := range env.FS.Stats() {
			pt.Requests += st.Requests
			pt.VirtBytes += st.Bytes
		}
	})
	return out
}

// BurstPoint is one backend's run of the checkpoint-burst scenario.
type BurstPoint struct {
	Backend   string
	Ratio     float64 // compute seconds per step / reference I/O seconds per step
	WriteSecs float64 // summed global spans of the collective write calls
	DrainSecs float64 // global span of the final drain barrier
	Elapsed   float64 // end-to-end seconds including compute and drain
	BW        float64
}

// burstWorkload is the checkpoint geometry shared by the sweep: the tile
// preset's per-rank byte count as contiguous N-1 checkpoint blocks.
func (p Preset) burstWorkload(compute float64) workload.CheckpointBurst {
	return workload.CheckpointBurst{
		BlockBytes: p.Tile.TileBytes(),
		Steps:      4,
		Compute:    compute,
		Interleave: p.BurstInterleave,
	}
}

// burstCompute returns ratio times the reference per-step I/O time: the
// checkpoint burst's collective write time per step with zero compute, at
// the caller's group count, on pass-through lustre. The reference is always
// healthy, whatever the preset's fault plan — the same convention as the
// overlap sweep — so a plan changes the measured runs, not their compute
// budget.
func (p Preset) burstCompute(nprocs, groups int, ratio float64) float64 {
	ref := p
	ref.Backend = "lustre"
	ref.Fault = nil
	env := ref.envPlan(ref.TileScale, core.Options{NumGroups: groups}, nil)
	w := ref.burstWorkload(0)
	var perStep float64
	ref.run(nprocs, func(r *mpi.Rank) {
		res := w.Run(r, env, "ckpt-ref")
		if r.WorldRank() == 0 {
			perStep = res.WriteSecs / float64(w.Steps)
		}
	})
	return ratio * perStep
}

// CheckpointBurst runs the checkpoint-burst scenario — compute phases
// interleaved with collective dumps, drain forced at the end — on each
// named backend. ratio sets each step's compute as a multiple of the
// reference per-step I/O time (burstCompute: healthy lustre, zero compute,
// measured first). At ratio >= 1 a staging tier has a whole I/O-time of
// compute per step to hide each drain under, so its write-call seconds must
// drop strictly below lustre's. Every run is verified byte-exact after its
// drain.
func (p Preset) CheckpointBurst(nprocs int, ratio float64, backends []string) []BurstPoint {
	compute := p.burstCompute(nprocs, 0, ratio)
	out := make([]BurstPoint, len(backends))
	ForEachPoint(len(backends), nprocs, func(i int) {
		b := backends[i]
		q := p
		q.Backend = b
		env := EnvFor(q, q.TileScale, core.Options{})
		w := q.burstWorkload(compute)
		out[i] = BurstPoint{Backend: b, Ratio: ratio}
		pt := &out[i]
		q.run(nprocs, func(r *mpi.Rank) {
			res := w.Run(r, env, "ckpt")
			if err := w.Check(r, env, "ckpt"); err != nil {
				panic(fmt.Sprintf("backend %s: checkpoint read-back: %v", b, err))
			}
			if r.WorldRank() == 0 {
				pt.WriteSecs = res.WriteSecs
				pt.DrainSecs = res.DrainSecs
				pt.Elapsed = res.Elapsed
				pt.BW = res.Bandwidth()
			}
		})
	})
	return out
}

// BurstFailurePoint is one checkpoint burst under a storage-tier fault plan.
type BurstFailurePoint struct {
	Backend   string
	Scenario  string
	Groups    int
	WriteSecs float64 // summed global spans of the collective write calls
	DrainSecs float64 // global span of the drain barrier, re-dump included
	Elapsed   float64 // end-to-end seconds
	// Verified reports byte-exact read-back AND a clean integrity-ledger
	// audit (every extent acknowledged at issue time reads back identical).
	Verified bool
	// Goodput is aggregate verified bytes per elapsed second (zero when
	// verification failed — corrupt bytes are not goodput).
	Goodput  float64
	Recovery recovery.FailoverStats
	// LostBytes/Redumped are the staging tier's loss ledger (zero off bb).
	LostBytes int64
	Redumped  int64
	// Breakdown is rank 0's phase accounting — under failure the sync
	// share carries the resilient protocol's announce/watchdog traffic.
	Breakdown mpiio.Breakdown
}

// CheckpointBurstUnderFailure runs the checkpoint-burst scenario on the
// preset's backend under a storage-tier fault plan — the "checkpoint burst
// under failure" experiment: a staging node dies mid-dump, the loss
// surfaces at the write call or the drain barrier, the lost blocks are
// re-dumped (collective redumpLost for the open call, the workload's
// regenerate-and-rewrite loop at the barrier), and the run must still end
// with a checksum-verified, byte-exact checkpoint. ratio sets per-step
// compute as a multiple of the reference per-step I/O time (burstCompute,
// at this run's group count); plan == nil runs the
// healthy reference for goodput-degradation comparisons.
func (p Preset) CheckpointBurstUnderFailure(nprocs, groups int, ratio float64, plan *fault.Plan) BurstFailurePoint {
	env := p.envPlan(p.TileScale, core.Options{NumGroups: groups}, plan)
	w := p.burstWorkload(p.burstCompute(nprocs, groups, ratio))
	pt := BurstFailurePoint{Backend: env.FS.Name(), Groups: groups, Verified: true}
	if plan != nil {
		pt.Scenario = plan.Name
	}
	var virt int64
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, plan, func(r *mpi.Rank) {
		res := w.Run(r, env, "ckpt-fail")
		if err := checkAudited(r, w, env, "ckpt-fail"); err != nil {
			pt.Verified = false
		}
		if r.WorldRank() == 0 {
			pt.WriteSecs = res.WriteSecs
			pt.DrainSecs = res.DrainSecs
			pt.Elapsed = res.Elapsed
			pt.Recovery = res.Recovery
			pt.Breakdown = res.Breakdown
			virt = res.VirtBytes
		}
	})
	pt.LostBytes, pt.Redumped = stagingLoss(env.FS)
	if pt.Verified && pt.Elapsed > 0 {
		pt.Goodput = float64(virt) / pt.Elapsed
	}
	return pt
}
