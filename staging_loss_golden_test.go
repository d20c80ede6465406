package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mpi"
)

// Staging-loss recovery goldens: the workload-level loss barrier (drain,
// typed StagingLostError, collective agreement, lost-extent re-dump,
// retry) pinned bit-exact for both workloads that run it — the checkpoint
// burst and the tile write. Every point must actually lose bytes, so the
// re-dump path is exercised, not merely reachable.

// TestGoldenBurstStagingLoss pins the checkpoint burst under lost-bb-node
// as its full point.
func TestGoldenBurstStagingLoss(t *testing.T) {
	plan, err := fault.Scenario(fault.LostBBNode)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		1: "{Backend:bb Scenario:lost-bb-node Groups:1 WriteSecs:0.32726038562301274 DrainSecs:0.043833531478323806 Elapsed:0.8340831507161163 Verified:true Goodput:4.827494520831589e+08 Recovery:{Detections:0 Failovers:0 Reelections:0 Degradations:1 DetectSecs:0 RecoverSecs:0 TimeToRecover:0} LostBytes:3072 Redumped:3072 Breakdown:{Sync:0.005536548000002778 Exchange:0.023145648000000157 IO:0.30735545882857196 Other:0.03552048627276161}}",
		4: "{Backend:bb Scenario:lost-bb-node Groups:4 WriteSecs:0.06343811599999973 DrainSecs:0.1501623552242768 Elapsed:0.6505303609009604 Verified:true Goodput:6.189614016513238e+08 Recovery:{Detections:0 Failovers:0 Reelections:4 Degradations:1 DetectSecs:0 RecoverSecs:0 TimeToRecover:0} LostBytes:2048 Redumped:2048 Breakdown:{Sync:0.04997348399999969 Exchange:0.0031680240000002413 IO:0.03392316429435159 Other:0.12700002292992496}}",
	}
	for _, g := range []int{1, 4} {
		pt := burstPreset().CheckpointBurstUnderFailure(burstProcs, g, 1, plan)
		if pt.LostBytes == 0 {
			t.Errorf("groups=%d: lost no staged bytes", g)
		}
		if got := fmt.Sprintf("%+v", pt); got != want[g] {
			t.Errorf("groups=%d:\n got  %s\n want %s", g, got, want[g])
		}
	}
}

// TestGoldenTileStagingLoss pins a tile write on a throttled staging tier
// under lost-bb-node: elapsed, and the tier's lost and re-dumped bytes.
func TestGoldenTileStagingLoss(t *testing.T) {
	plan, err := fault.Scenario(fault.LostBBNode)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		1: "elapsed=0x1.4627eea1f08cp-02 lost=1024 redumped=1024",
		4: "elapsed=0x1.457d9388df06ep-02 lost=1024 redumped=1024",
	}
	for _, g := range []int{1, 4} {
		p := experiments.BenchPreset()
		p.Backend = "bb"
		p.BBDrainBW = 5e7
		p.Fault = plan
		env := experiments.EnvFor(p, p.TileScale, core.Options{NumGroups: g})
		var elapsed float64
		mpi.RunPlan(burstProcs, p.Cluster, p.Seed, plan, func(r *mpi.Rank) {
			res := p.Tile.Write(r, env, "tile")
			if r.WorldRank() == 0 {
				elapsed = res.Elapsed
			}
		})
		lost, redumped := env.FS.(*bb.Tier).FaultCounters()
		if lost == 0 {
			t.Errorf("groups=%d: lost no staged bytes", g)
		}
		if got := fmt.Sprintf("elapsed=%x lost=%d redumped=%d", elapsed, lost, redumped); got != want[g] {
			t.Errorf("groups=%d:\n got  %s\n want %s", g, got, want[g])
		}
	}
}
