package core_test

// Live tests of the plan as a value: built by experiments' runners, so they
// live outside package core (experiments imports it).

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/workload"
)

// viewOf is the view workload w gives rank me of n.
func viewOf(w workload.Workload, me, n int) datatype.View {
	switch w := w.(type) {
	case workload.TileIO:
		return w.View(me, n)
	case workload.BTIO:
		return w.View(me, n)
	case workload.IOR: // the segmented layout WorkloadFor builds
		return datatype.View{Disp: int64(me) * w.Block, Filetype: datatype.Contig(w.Block)}
	}
	panic(fmt.Sprintf("viewOf: %T", w))
}

// TestEveryRankDerivesTheSamePlan runs tile, IOR and BT-IO on BenchPreset
// and checks that every rank's LastPlan is the one Partition returns for
// the gathered footprints, MyGroup aside, and that MyGroup holds the rank.
func TestEveryRankDerivesTheSamePlan(t *testing.T) {
	const n = 16
	p := experiments.BenchPreset()
	ident := func(i int) int { return i }
	for _, name := range []string{job.WorkloadTileIO, job.WorkloadIOR, job.WorkloadBTIO} {
		for _, g := range []int{1, 4} {
			spec := job.Spec{Workload: name, Groups: g}
			w, scale, err := experiments.WorkloadFor(p, spec)
			if err != nil {
				t.Fatal(err)
			}
			env := experiments.EnvFor(p, scale, experiments.OptionsFor(spec))
			plans := make([]core.Plan, n)
			rows := make([][]int64, n)
			var cl *cluster.Cluster
			mpi.Run(n, p.Cluster, p.Seed, func(r *mpi.Rank) {
				me := r.WorldRank()
				plans[me] = w.Write(r, env, "plan").Plan
				rows[me] = core.Footprint(viewOf(w, me, n))
				if me == 0 {
					cl = r.W.Cluster
				}
			})
			want := core.Partition(rows, ident, ident, cl.NodeOf, env.Opts)
			for me, got := range plans {
				mine := got
				mine.MyGroup = 0
				if !reflect.DeepEqual(mine, want) {
					t.Errorf("%s groups=%d rank %d: plan %+v, Partition %+v", name, g, me, got, want)
				} else if !slices.Contains(got.Groups[got.MyGroup], me) {
					t.Errorf("%s groups=%d rank %d: MyGroup %d is %v", name, g, me, got.MyGroup, got.Groups[got.MyGroup])
				}
			}
		}
	}
}

// TestLastPlanSurvivesReelection takes every rank's LastPlan after the
// first write of a 4-group burst on the staging tier, loses staging node 0
// (lost-bb-node) before the second, and checks the plans taken earlier did
// not change when the groups re-elected their aggregators.
func TestLastPlanSurvivesReelection(t *testing.T) {
	const n, block, steps = 16, 1024, 4
	plan, err := fault.Scenario(fault.LostBBNode)
	if err != nil {
		t.Fatal(err)
	}
	p := experiments.BenchPreset()
	p.Backend = "bb"
	p.BBDrainBW = 2e8
	p.Fault = plan
	env := experiments.EnvFor(p, p.TileScale, core.Options{NumGroups: 4})
	// Slab order interleaves the nodes, so every group spans several and
	// keeps a healthy one to re-elect onto.
	ppn := p.Cluster.PEsPerNode
	slab := func(me int) int64 { return int64((me%ppn)*(n/ppn) + me/ppn) }
	before := make([]core.Plan, n)
	printed := make([]string, n)
	reelected := false
	mpi.RunPlan(n, p.Cluster, p.Seed, plan, func(r *mpi.Rank) {
		me := r.WorldRank()
		f := core.Open(mpi.WorldComm(r), env.FS, "ckpt", env.Stripe, env.Opts)
		f.SetView(datatype.View{Disp: slab(me) * steps * block, Filetype: datatype.Contig(steps * block)})
		data := make([]byte, block)
		for s := 0; s < steps; s++ {
			r.Compute(0.1) // the node dies at 0.15 s
			f.WriteAtAll(int64(s)*block, data)
			if s == 0 {
				before[me] = f.LastPlan()
				printed[me] = fmt.Sprintf("%+v", before[me])
			}
		}
		if fmt.Sprintf("%+v", f.LastPlan()) != printed[me] {
			reelected = true
		}
	})
	if !reelected {
		t.Fatal("no group re-elected its aggregators: the test exercises nothing")
	}
	for me := range before {
		if got := fmt.Sprintf("%+v", before[me]); got != printed[me] {
			t.Errorf("rank %d: plan taken before the re-election changed:\n was %s\n now %s", me, printed[me], got)
		}
	}
}
