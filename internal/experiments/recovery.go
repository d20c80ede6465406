package experiments

// Recovery experiments: the robustness complement to the fault-scenario
// sweeps. Where faults.go measures how perturbations inflate the collective
// wall, these runners measure what happens when components actually die —
// writes run under fail-stop plans, every tile is verified byte-for-byte
// against the deterministic pattern after recovery, and the recovery
// telemetry (detections, failovers, time-to-recover) is aggregated so the
// partitioned and unpartitioned protocols can be compared on how much of the
// machine a failure drags into replanning.

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// FailurePoint is one (plan, groups) tile write-under-failure measurement.
type FailurePoint struct {
	Scenario string
	Groups   int
	Elapsed  float64 // global elapsed seconds for the collective write
	Recovery recovery.FailoverStats
	// Verified reports that after the failure-and-recovery run, every
	// rank's tile read back byte-identical to the deterministic pattern —
	// i.e. recovery preserved the data a healthy run would have produced.
	Verified bool
	// Goodput is aggregate verified bytes per elapsed second (zero when
	// verification failed — corrupt bytes are not goodput).
	Goodput float64
}

// TileUnderFailure runs one collective tile write at nprocs ranks and the
// given subgroup count under the fault plan, then verifies every tile
// in-run. The plan may carry crashes, OST failures, and message loss; nil
// runs the healthy reference.
func (p Preset) TileUnderFailure(nprocs, groups int, plan *fault.Plan) FailurePoint {
	opts := core.Options{NumGroups: groups}
	env := p.envPlan(p.TileScale, opts, plan)
	pt := FailurePoint{Groups: groups, Verified: true}
	if plan != nil {
		pt.Scenario = plan.Name
	}
	var virt int64
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, plan, func(r *mpi.Rank) {
		res := p.Tile.Write(r, env, "tile-failure")
		mpi.WorldComm(r).Barrier()
		if err := p.Tile.VerifyTile(r, env, "tile-failure"); err != nil {
			pt.Verified = false
		}
		if r.WorldRank() == 0 && env.Ledger != nil {
			// Integrity audit: every acknowledged store must read back
			// byte-identical to its issue-time digest's bytes.
			lf := env.FS.Open(r, "tile-failure", env.Stripe)
			if err := env.Ledger.VerifyFile("tile-failure", lf); err != nil {
				pt.Verified = false
			}
		}
		if r.WorldRank() == 0 {
			pt.Elapsed = res.Elapsed
			pt.Recovery = res.Recovery
			virt = res.VirtBytes
		}
	})
	if pt.Verified && pt.Elapsed > 0 {
		pt.Goodput = float64(virt) / pt.Elapsed
	}
	return pt
}

// RecoverySuite runs every named scenario, baseline (groups=1) against
// ParColl (the given group count), with in-run verification. The result
// order is fault.Names() order, baseline before ParColl — stable, so tests
// can pin it. The paper's partitioning argument, extended to hard failures:
// under the same crash the unpartitioned protocol replans across the whole
// communicator while ParColl confines detection and failover to the crashed
// aggregator's subgroup, so its time-to-recover must come out strictly
// lower.
func (p Preset) RecoverySuite(nprocs, groups int) []FailurePoint {
	plans, gs := catalogPoints(groups)
	out := make([]FailurePoint, len(plans))
	ForEachPoint(len(out), nprocs, func(i int) { out[i] = p.TileUnderFailure(nprocs, gs[i], plans[i]) })
	return out
}

// BTUnderFailure is TileUnderFailure's BT-IO sibling: Steps solution dumps
// written collectively under the plan, then read back dump-by-dump through
// the same handles and compared to the pattern. Exercises recovery across
// repeated collective calls on one file handle (a corpse detected in call k
// must fail over at round zero of call k+1 without paying the watchdog
// again).
func (p Preset) BTUnderFailure(nprocs, groups int, plan *fault.Plan) FailurePoint {
	opts := core.Options{NumGroups: groups}
	if groups > 1 {
		opts.MaterializeIntermediate = true // match the Figure 10 configuration
	}
	env := p.envPlan(p.BTScale, opts, plan)
	pt := FailurePoint{Groups: groups, Verified: true}
	if plan != nil {
		pt.Scenario = plan.Name
	}
	var virt int64
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, plan, func(r *mpi.Rank) {
		res := p.BT.Write(r, env, "bt-failure")
		comm := mpi.WorldComm(r)
		comm.Barrier()
		f := core.Open(comm, env.FS, "bt-failure", env.Stripe, env.Opts)
		me := r.WorldRank()
		f.SetView(p.BT.View(me, nprocs))
		per := p.BT.DumpBytes(nprocs)
		for s := 0; s < p.BT.Steps; s++ {
			got := f.ReadAtAll(int64(s)*per, per)
			for i, b := range got {
				if b != workload.PatternByte(me, int64(s)*per+int64(i)) {
					pt.Verified = false
					break
				}
			}
		}
		if r.WorldRank() == 0 && env.Ledger != nil {
			lf := env.FS.Open(r, "bt-failure", env.Stripe)
			if err := env.Ledger.VerifyFile("bt-failure", lf); err != nil {
				pt.Verified = false
			}
		}
		if r.WorldRank() == 0 {
			pt.Elapsed = res.Elapsed
			pt.Recovery = res.Recovery
			virt = res.VirtBytes
		}
	})
	if pt.Verified && pt.Elapsed > 0 {
		pt.Goodput = float64(virt) / pt.Elapsed
	}
	return pt
}
