package experiments

// Fault-scenario experiments: the quantitative form of the paper's central
// claim. Section 1 argues that the global synchronization in every
// collective-I/O round couples all processes to the slowest one — the
// "collective wall" — and Section 4 argues that partitioning confines each
// perturbation to one subgroup. Running the same workload under a named
// fault plan with groups=1 (baseline ext2ph) and groups=G (ParColl) makes
// that argument measurable: as straggler severity rises, the baseline's
// elapsed time must degrade strictly faster than ParColl's.

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/workload"
)

// ScenarioPoint is one (plan, groups) tile-IO collective-write measurement.
type ScenarioPoint struct {
	Scenario  string
	Groups    int
	Elapsed   float64 // global elapsed seconds for the collective write
	Breakdown mpiio.Breakdown
	Perturbed uint64 // messages delayed by the perturber (diagnostics)
}

// TileUnderFault runs one collective tile write at nprocs ranks and the
// given subgroup count (1 = baseline ext2ph) under the fault plan, which
// may be nil for a healthy run.
func (p Preset) TileUnderFault(nprocs, groups int, plan *fault.Plan) ScenarioPoint {
	return p.tileUnderFault(nprocs, groups, plan, 0, p.Seed)
}

// tileUnderFault is TileUnderFault with an explicit collective-buffer size
// (0 = preset default; the sweep shrinks it to raise the round count) and
// seed (replicate runs vary it).
func (p Preset) tileUnderFault(nprocs, groups int, plan *fault.Plan, cb, seed int64) ScenarioPoint {
	opts := core.Options{NumGroups: groups}
	opts.Hints.CBBufferSize = cb
	env := p.envPlan(p.TileScale, opts, plan)
	pt := ScenarioPoint{Groups: groups}
	if plan != nil {
		pt.Scenario = plan.Name
	}
	_, st := mpi.RunPlan(nprocs, p.Cluster, seed, plan, func(r *mpi.Rank) {
		res := p.Tile.Write(r, env, "tile")
		bd := workload.MeanBreakdown(mpi.WorldComm(r), res.Breakdown)
		if r.WorldRank() == 0 {
			pt.Elapsed = res.Elapsed
			pt.Breakdown = bd
		}
	})
	pt.Perturbed = st.Perturbed.Value()
	return pt
}

// ScenarioSuite runs the full named-scenario catalog at nprocs ranks, each
// under baseline (groups=1) and ParColl (the given group count). The
// result order is fault.Names() order, baseline before ParColl — stable,
// so goldens can pin it.
func (p Preset) ScenarioSuite(nprocs, groups int) []ScenarioPoint {
	plans, gs := catalogPoints(groups)
	out := make([]ScenarioPoint, len(plans))
	ForEachPoint(len(out), nprocs, func(i int) { out[i] = p.TileUnderFault(nprocs, gs[i], plans[i]) })
	return out
}

// catalogPoints lists the catalog suites' runs: every named scenario in
// fault.Names() order, baseline (groups=1) before ParColl, the two runs of
// a scenario sharing its (read-only) plan.
func catalogPoints(groups int) (plans []*fault.Plan, gs []int) {
	for _, name := range fault.Names() {
		plan, err := fault.Scenario(name)
		if err != nil {
			panic(err)
		}
		plans = append(plans, plan, plan)
		gs = append(gs, 1, groups)
	}
	return plans, gs
}

// StragglerPoint compares baseline and ParColl elapsed time at one
// straggler severity.
type StragglerPoint struct {
	Severity float64
	Ext2ph   float64 // groups=1 elapsed, seconds
	ParColl  float64 // groups=G elapsed, seconds
}

// Gap returns how much slower the baseline ran than ParColl, in seconds.
func (s StragglerPoint) Gap() float64 { return s.Ext2ph - s.ParColl }

// StragglerSweep sweeps straggler severity (fault.SeverityPlan) for the
// tile workload, measuring baseline ext2ph against ParColl with the given
// subgroup count at each level. Severity 0 is the healthy reference. The
// paper's claim, quantified: Ext2ph's degradation over its own healthy
// time grows strictly faster with severity than ParColl's, because the
// unpartitioned protocol pays the maximum per-round stall over all nprocs
// ranks every round while ParColl pays only the maximum within each
// subgroup.
// Each point averages sweepReps independent replicates (seeds p.Seed+k):
// the per-round stall maximum is an order statistic, so single runs at few
// rounds are noisy; the replicate mean is what the paper's repeated
// measurements report. The collective buffer is shrunk 4x below the preset
// default to raise the round count — more synchronization points per call,
// which is precisely the regime the collective wall lives in.
func (p Preset) StragglerSweep(nprocs, groups int, severities []float64) []StragglerPoint {
	const sweepReps = 4
	cb := int64(4<<20) / int64(p.TileScale) / 4
	if cb < 256 {
		cb = 256
	}
	// Every (severity, replicate, protocol) run is its own point; the
	// replicate means are summed after the join in replicate order, so the
	// floats match a serial sweep's bit for bit.
	n := len(severities) * sweepReps
	ext, par := make([]float64, n), make([]float64, n)
	ForEachPoint(2*n, nprocs, func(i int) {
		j, g, dst := i/2, 1, ext
		if i%2 == 1 {
			g, dst = groups, par
		}
		plan := fault.SeverityPlan(severities[j/sweepReps])
		dst[j] = p.tileUnderFault(nprocs, g, plan, cb, p.Seed+int64(j%sweepReps)).Elapsed
	})
	out := make([]StragglerPoint, len(severities))
	for s, sev := range severities {
		out[s].Severity = sev
		for k := s * sweepReps; k < (s+1)*sweepReps; k++ {
			out[s].Ext2ph += ext[k] / sweepReps
			out[s].ParColl += par[k] / sweepReps
		}
	}
	return out
}
