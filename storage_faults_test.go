// Storage-tier fault-tolerance acceptance tests (DESIGN.md §15): a burst-
// buffer node lost mid-dump, flaky drain acknowledgments, and a dead pvfs
// server must all end in checksum-verified, byte-exact data — and the
// partitioned protocol's goodput must degrade strictly less than the
// unpartitioned one's under the same staging-node loss. A seeded chaos
// sweep pins that randomized fault schedules stay bit-deterministic across
// repeated runs, with the integrity ledger's audit passing every time.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mpi"
)

const burstProcs = 16

// burstPreset is the shared configuration: the bench geometry on the bb
// backend, drain throttled so the lost-bb-node scenario's node death at
// 2 ms catches absorbed-but-undrained extents (the interesting case).
func burstPreset() experiments.Preset {
	p := experiments.BenchPreset()
	p.Backend = "bb"
	p.BBDrainBW = 2e8
	p.BurstInterleave = 256
	return p
}

// TestCheckpointBurstSurvivesBBNodeLoss is the tentpole acceptance test: a
// checkpoint burst on the staging tier with a node lost mid-dump must (a)
// actually lose staged bytes and re-dump them, (b) end checksum-verified
// and byte-exact at both group counts, and (c) cost ParColl (groups=4)
// strictly less goodput degradation than the unpartitioned protocol
// (groups=1) under the identical plan — the paper's partitioning argument
// extended to storage-tier failures.
func TestCheckpointBurstSurvivesBBNodeLoss(t *testing.T) {
	p := burstPreset()
	plan, err := fault.Scenario(fault.LostBBNode)
	if err != nil {
		t.Fatal(err)
	}
	deg := map[int]float64{}
	for _, groups := range []int{1, 4} {
		healthy := p.CheckpointBurstUnderFailure(burstProcs, groups, 1, nil)
		faulted := p.CheckpointBurstUnderFailure(burstProcs, groups, 1, plan)
		if !healthy.Verified {
			t.Fatalf("groups=%d: healthy burst failed verification", groups)
		}
		if !faulted.Verified {
			t.Fatalf("groups=%d: burst under %s failed checksum-verified read-back", groups, plan.Name)
		}
		if faulted.LostBytes == 0 {
			t.Fatalf("groups=%d: node death at %gs lost no staged bytes (fault never bit)", groups, 2e-3)
		}
		if faulted.Redumped < faulted.LostBytes {
			t.Fatalf("groups=%d: re-dumped %d of %d lost bytes", groups, faulted.Redumped, faulted.LostBytes)
		}
		if healthy.Goodput <= 0 || faulted.Goodput <= 0 {
			t.Fatalf("groups=%d: non-positive goodput (healthy %g, faulted %g)", groups, healthy.Goodput, faulted.Goodput)
		}
		deg[groups] = healthy.Goodput / faulted.Goodput
		if deg[groups] <= 1 {
			t.Errorf("groups=%d: failure did not cost goodput (degradation factor %g)", groups, deg[groups])
		}
	}
	if deg[4] >= deg[1] {
		t.Errorf("ParColl goodput degradation %gx not strictly smaller than ext2ph's %gx", deg[4], deg[1])
	}
}

// TestCheckpointBurstUnderFlakyDrain: flaky drain acknowledgments cost
// retry time at the Drain barrier, never data — the run stays verified and
// strictly slower than healthy.
func TestCheckpointBurstUnderFlakyDrain(t *testing.T) {
	p := burstPreset()
	plan, err := fault.Scenario(fault.FlakyDrain)
	if err != nil {
		t.Fatal(err)
	}
	healthy := p.CheckpointBurstUnderFailure(burstProcs, 4, 1, nil)
	faulted := p.CheckpointBurstUnderFailure(burstProcs, 4, 1, plan)
	if !healthy.Verified || !faulted.Verified {
		t.Fatalf("verification: healthy=%v faulted=%v, want both", healthy.Verified, faulted.Verified)
	}
	if faulted.LostBytes != 0 {
		t.Fatalf("flaky drains lost %d bytes; acknowledgments are flaky, durability is not", faulted.LostBytes)
	}
	if faulted.Elapsed <= healthy.Elapsed {
		t.Errorf("drain retries cost no time: faulted %g s <= healthy %g s", faulted.Elapsed, healthy.Elapsed)
	}
}

// TestTileUnderDeadPVFSServer: the dead-pvfs-server scenario on the listio
// farm — the vectored call falls back to scalar retries against the
// surviving servers and the write completes verified.
func TestTileUnderDeadPVFSServer(t *testing.T) {
	p := experiments.BenchPreset()
	p.Backend = "listio"
	plan, err := fault.Scenario(fault.DeadPVFSServer)
	if err != nil {
		t.Fatal(err)
	}
	for _, groups := range []int{1, 4} {
		pt := p.TileUnderFailure(burstProcs, groups, plan)
		if !pt.Verified {
			t.Errorf("groups=%d: tile write under %s failed verification", groups, plan.Name)
		}
	}
}

// TestBurstUnderFailureDeterministic pins the acceptance point bit-exact
// across repeated runs: the whole recovery path — node death, punch, typed
// error, re-dump, ledger audit — replays identically.
func TestBurstUnderFailureDeterministic(t *testing.T) {
	p := burstPreset()
	plan, err := fault.Scenario(fault.LostBBNode)
	if err != nil {
		t.Fatal(err)
	}
	var ref string
	for run := 0; run < 2; run++ {
		pt := p.CheckpointBurstUnderFailure(burstProcs, 4, 1, plan)
		got := fmt.Sprintf("%+v", pt)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("run=%d diverged:\n  got: %s\n  ref: %s", run, got, ref)
		}
	}
}

// TestChaosStorageFaults is the seeded chaos sweep: randomized storage-
// fault schedules (node deaths at random times plus flaky drain windows),
// each run at 1 and 4 groups, twice. Every combination must verify (ledger
// audit included, inside the runner) and every replica must land
// bit-identical.
func TestChaosStorageFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep runs many replicated simulations")
	}
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 3; i++ {
		plan := &fault.Plan{
			Name:    fmt.Sprintf("chaos-%d", i),
			BBFails: []fault.BBFail{{Node: rng.Intn(burstProcs / 2), At: 5e-4 + rng.Float64()*4e-3}},
			DrainFails: []fault.DrainFail{{
				Node: -1, Prob: 0.2 + rng.Float64()*0.5,
				At: 0, For: 2e-3 + rng.Float64()*4e-3, Every: 1.5e-2,
			}},
		}
		for _, groups := range []int{1, 4} {
			var ref string
			p := burstPreset()
			for run := 0; run < 2; run++ {
				pt := p.CheckpointBurstUnderFailure(burstProcs, groups, 1, plan)
				if !pt.Verified {
					t.Fatalf("%s groups=%d: failed checksum-verified read-back", plan.Name, groups)
				}
				got := fmt.Sprintf("%+v", pt)
				if ref == "" {
					ref = got
				} else if got != ref {
					t.Fatalf("%s groups=%d run=%d diverged:\n  got: %s\n  ref: %s",
						plan.Name, groups, run, got, ref)
				}
			}
		}
	}
}

// TestBBStagesPlainWritesOverFlakyOST pins the routing of plain writes on
// the staging tier over an injecting under-backend: flaky-ost makes lustre
// inject OST errors, but the collective layer's recovery path stays off
// (no crashes, no staging-node failures), so its writes are plain and must
// keep absorbing into staging memory instead of writing through.
func TestBBStagesPlainWritesOverFlakyOST(t *testing.T) {
	p := experiments.BenchPreset()
	p.Backend = "bb"
	plan, err := fault.Scenario(fault.FlakyOST)
	if err != nil {
		t.Fatal(err)
	}
	p.Fault = plan
	env := experiments.EnvFor(p, p.TileScale, core.Options{NumGroups: 4})
	var elapsed float64
	mpi.RunPlan(burstProcs, p.Cluster, p.Seed, plan, func(r *mpi.Rank) {
		res := p.Tile.Write(r, env, "tile")
		if r.WorldRank() == 0 {
			elapsed = res.Elapsed
		}
	})
	absorbed, drained, writethrough := env.FS.(*bb.Tier).Counters()
	got := fmt.Sprintf("elapsed=%x absorbed=%d drained=%d writethrough=%d retry=%+v",
		elapsed, absorbed, drained, writethrough, env.FS.RetryStats())
	if want := "elapsed=0x1.33484e44d3e6ep-07 absorbed=100663296 drained=0 writethrough=0 retry={Attempts:24 Retries:0 Failures:0 Exhausted:0 BreakerOpens:0 BackoffSecs:0}"; got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}
