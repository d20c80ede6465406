package workload

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpiio"
)

// Split-mode workloads must write exactly the bytes the blocking mode
// writes — the pipeline changes the clock, never the file — and must
// report overlap accounting consistent with hidden + exposed == tail.

func TestTileIOSplitWriteVerify(t *testing.T) {
	env := testEnv(core.Options{NumGroups: 2, Hints: mpiio.Hints{CBBufferSize: 2048}})
	w := TileIO{TileX: 32, TileY: 24, Elem: 4, Steps: 2, Compute: 1e-3, Split: true}
	const nprocs = 8
	mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		res := w.Write(r, env, "tile")
		if err := w.Check(r, env, "tile"); err != nil {
			t.Error(err)
		}
		if res.Overlap.Hidden <= 0 {
			t.Errorf("rank %d: split run hid nothing: %+v", r.WorldRank(), res.Overlap)
		}
		if res.Overlap.HiddenFrac() <= 0 || res.Overlap.HiddenFrac() > 1 {
			t.Errorf("hidden fraction %g out of (0,1]", res.Overlap.HiddenFrac())
		}
	})
}

func TestTileIOSplitFasterThanBlocking(t *testing.T) {
	run := func(split bool) float64 {
		env := testEnv(core.Options{NumGroups: 2, Hints: mpiio.Hints{CBBufferSize: 2048}})
		w := TileIO{TileX: 64, TileY: 48, Elem: 4, Steps: 3, Compute: 5e-3, Split: split}
		var elapsed float64
		mpi.Run(8, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			res := w.Write(r, env, "tile")
			if r.WorldRank() == 0 {
				elapsed = res.Elapsed
			}
		})
		return elapsed
	}
	split, block := run(true), run(false)
	if split >= block {
		t.Errorf("split tile write (%g) not faster than blocking (%g)", split, block)
	}
}
