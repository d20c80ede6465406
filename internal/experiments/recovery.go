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
	"repro/internal/bb"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/recovery"
	"repro/internal/storage"
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
	// LostBytes is what the staging tier lost to node deaths (zero off bb,
	// and zero when every staged byte had drained before its node died).
	LostBytes int64
}

// TileUnderFailure runs one collective tile write at nprocs ranks and the
// given subgroup count under the fault plan, then verifies every tile
// in-run. The plan may carry crashes, OST failures, and message loss; nil
// runs the healthy reference.
func (p Preset) TileUnderFailure(nprocs, groups int, plan *fault.Plan) FailurePoint {
	return p.underFailure(job.Spec{Workload: job.WorkloadTileIO, Procs: nprocs, Groups: groups}, plan, "tile-failure")
}

// underFailure writes the spec's workload once under the plan, checks
// every rank's bytes and audits the ledger (checkAudited), and reports
// rank 0's elapsed time, recovery record and goodput.
func (p Preset) underFailure(s job.Spec, plan *fault.Plan, name string) FailurePoint {
	w, scale, err := WorkloadFor(p, s)
	if err != nil {
		panic(err)
	}
	env := p.envPlan(scale, OptionsFor(s), plan)
	res, err := p.once(s.Procs, plan, w, env, name, true)
	pt := FailurePoint{Groups: s.Groups, Elapsed: res.Elapsed, Recovery: res.Recovery, Verified: err == nil}
	pt.LostBytes, _ = stagingLoss(env.FS)
	if plan != nil {
		pt.Scenario = plan.Name
	}
	if pt.Verified && pt.Elapsed > 0 {
		pt.Goodput = float64(res.VirtBytes) / pt.Elapsed
	}
	return pt
}

// stagingLoss reads the staging tier's loss ledger after a run: bytes lost
// to node deaths and bytes re-dumped (both zero off bb).
func stagingLoss(fs storage.Backend) (lost, redumped int64) {
	if tier, ok := fs.(*bb.Tier); ok {
		return tier.FaultCounters()
	}
	return 0, 0
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
// the same options and compared to the pattern. Exercises recovery across
// repeated collective calls on one file handle (a corpse detected in call k
// must fail over at round zero of call k+1 without paying the watchdog
// again).
func (p Preset) BTUnderFailure(nprocs, groups int, plan *fault.Plan) FailurePoint {
	return p.underFailure(job.Spec{Workload: job.WorkloadBTIO, Procs: nprocs, Groups: groups}, plan, "bt-failure")
}
