package workload

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/storage"
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

func TestBTIOSplitWriteVerify(t *testing.T) {
	// BT-IO's scattered cells force intermediate views; the split pipeline
	// must still land every byte of both dumps.
	env := testEnv(core.Options{NumGroups: 2, Hints: mpiio.Hints{CBBufferSize: 2048}})
	w := BTIO{N: 8, Elem: 4, Steps: 2, Compute: 1e-3, Split: true}
	fs := env.FS
	const nprocs = 4
	mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		res := w.Write(r, env, "bts")
		if res.Overlap.Hidden+res.Overlap.Exposed <= 0 {
			t.Error("split BT-IO recorded no tail at all")
		}
	})
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		lf := fs.Open(r, "bts", env.Stripe)
		per := w.DumpBytes(nprocs)
		for p := 0; p < nprocs; p++ {
			v := w.View(p, nprocs)
			for s := 0; s < w.Steps; s++ {
				var pos int64
				for _, seg := range v.Map(int64(s)*per, per) {
					got := storage.Read(r, lf, seg.Off, seg.Len)
					for i, b := range got {
						want := PatternByte(p, int64(s)*per+pos+int64(i))
						if b != want {
							t.Fatalf("proc %d step %d byte %d: got %d want %d", p, s, pos+int64(i), b, want)
						}
					}
					pos += seg.Len
				}
			}
		}
	})
}

func TestBTIOSplitReadBack(t *testing.T) {
	env := testEnv(core.Options{NumGroups: 2, Hints: mpiio.Hints{CBBufferSize: 2048}})
	w := BTIO{N: 8, Elem: 4, Steps: 2}
	const nprocs = 4
	mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		w.Write(r, env, "btr")
	})
	w.Split = true
	w.Compute = 1e-3
	mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		res := w.Read(r, env, "btr")
		if res.Elapsed <= 0 {
			t.Error("no elapsed time for split read")
		}
		if res.Overlap.Hidden+res.Overlap.Exposed < 0 {
			t.Errorf("negative overlap accounting: %+v", res.Overlap)
		}
	})
}
