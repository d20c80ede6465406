package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestDegradationsReachTheRegistry: every degradation a checkpoint burst's
// Result counts — here the staging losses resilientWrite absorbs when a bb
// node dies mid-burst — is also counted in mpiio.recovery.degradations.
func TestDegradationsReachTheRegistry(t *testing.T) {
	const n = 16
	plan, err := fault.Scenario(fault.LostBBNode)
	if err != nil {
		t.Fatal(err)
	}
	p := BenchPreset()
	p.Backend = "bb"
	p.Fault = plan
	env := p.envPlan(p.TileScale, core.Options{NumGroups: 1}, plan)
	w := p.burstWorkload(p.burstCompute(n, 1, 1))
	reg := obs.New()
	var res workload.CheckpointResult
	mpi.RunPlan(n, p.Cluster, p.Seed, plan, func(r *mpi.Rank) {
		r.SetObs(reg)
		out := w.Run(r, env, "ckpt")
		if r.WorldRank() == 0 {
			res = out
		}
	})
	got := reg.Counter("mpiio.recovery.degradations").Value()
	if res.Recovery.Degradations == 0 || got != res.Recovery.Degradations {
		t.Errorf("registry counts %d degradations, Result %d (want equal and nonzero)", got, res.Recovery.Degradations)
	}
}

// TestTileUnderFailureReportsLostBytes: lost-bb-node kills staging node 0
// at 0.15 s. At the default drain pace the tile write has drained by then
// and loses nothing; with a 50 MB/s drain pipe the node dies with staged
// bytes, which the run loses, re-dumps and verifies.
func TestTileUnderFailureReportsLostBytes(t *testing.T) {
	const n = 16
	plan, err := fault.Scenario(fault.LostBBNode)
	if err != nil {
		t.Fatal(err)
	}
	p := BenchPreset()
	p.Backend = "bb"
	if pt := p.TileUnderFailure(n, 1, plan); pt.LostBytes != 0 || !pt.Verified {
		t.Errorf("default drain: lost %d bytes, verified %v (want 0, true)", pt.LostBytes, pt.Verified)
	}
	p.BBDrainBW = 5e7
	if pt := p.TileUnderFailure(n, 1, plan); pt.LostBytes <= 0 || !pt.Verified {
		t.Errorf("50 MB/s drain: lost %d bytes, verified %v (want > 0, true)", pt.LostBytes, pt.Verified)
	}
}
