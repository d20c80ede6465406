package experiments

// Overlap experiments: split collectives against the collective wall.
// ROMIO's split collectives (MPI_File_write_all_begin/end) are the other
// lever besides partitioning: the application computes between Begin and
// End while the simulator's progress engine retires the in-flight two-phase
// rounds in the background. The sweep measures blocking vs. split, baseline
// ext2ph vs. ParColl, across compute/IO ratios — healthy and under a fault
// plan — quantifying how much I/O tail the overlap hides and how the two
// mechanisms compose (partitioning confines stragglers; overlap hides what
// remains).

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// OverlapPoint is one compute/IO ratio's comparison of blocking and split
// collectives under both protocols.
type OverlapPoint struct {
	Scenario string
	Ratio    float64 // per-step compute seconds / per-step blocking I/O seconds
	Steps    int

	BlockExt2ph  float64 // elapsed seconds, blocking, groups=1
	SplitExt2ph  float64 // elapsed seconds, split, groups=1
	BlockParColl float64 // elapsed seconds, blocking, ParColl groups
	SplitParColl float64 // elapsed seconds, split, ParColl groups

	HiddenExt2ph  float64 // hidden fraction of the split ext2ph run's I/O tail
	HiddenParColl float64 // hidden fraction of the split ParColl run's I/O tail
}

// SplitGain returns how much elapsed time the split ParColl variant saved
// over blocking ParColl, in seconds.
func (o OverlapPoint) SplitGain() float64 { return o.BlockParColl - o.SplitParColl }

// overlapRun executes one multi-step tile write in a fresh environment.
func (p Preset) overlapRun(nprocs, groups, steps int, compute float64, split bool, plan *fault.Plan) workload.Result {
	env := p.envPlan(p.TileScale, core.Options{NumGroups: groups}, plan)
	w := p.Tile
	w.Steps = steps
	w.Compute = compute
	w.Split = split
	res, _ := p.once(nprocs, plan, w, env, "tile", false)
	return res
}

// OverlapSweep measures the multi-step tile write at each compute/IO ratio,
// in four variants per point: {blocking, split} x {ext2ph, ParColl-groups}.
// The per-step compute is ratio times the per-step elapsed time of a
// healthy blocking ext2ph run with no compute (the I/O reference), so
// ratio 1 means the application computes about as long as one dump takes.
// plan may be nil for healthy runs; the reference is always healthy, so a
// scenario's degradation is measured against the same compute budget.
func (p Preset) OverlapSweep(nprocs, groups, steps int, ratios []float64, plan *fault.Plan) []OverlapPoint {
	ref := p.overlapRun(nprocs, 1, steps, 0, false, nil).Elapsed / float64(steps)
	name := fault.Healthy
	if plan != nil {
		name = plan.Name
	}
	// Four points per ratio, in the order blocking ext2ph, split ext2ph,
	// blocking ParColl, split ParColl.
	res := make([]workload.Result, 4*len(ratios))
	ForEachPoint(len(res), nprocs, func(i int) {
		g := 1
		if i%4 >= 2 {
			g = groups
		}
		res[i] = p.overlapRun(nprocs, g, steps, ratios[i/4]*ref, i%2 == 1, plan)
	})
	out := make([]OverlapPoint, len(ratios))
	for i, ratio := range ratios {
		be, se, bp, sp := res[4*i], res[4*i+1], res[4*i+2], res[4*i+3]
		out[i] = OverlapPoint{
			Scenario: name, Ratio: ratio, Steps: steps,
			BlockExt2ph: be.Elapsed, SplitExt2ph: se.Elapsed, HiddenExt2ph: se.Overlap.HiddenFrac(),
			BlockParColl: bp.Elapsed, SplitParColl: sp.Elapsed, HiddenParColl: sp.Overlap.HiddenFrac(),
		}
	}
	return out
}
