// Visualization: the paper's motivating workload — a parallel renderer
// where each process produces one tile of a dense 2D frame and all tiles
// are committed with a single collective write (the MPI-Tile-IO pattern).
// The example sweeps ParColl subgroup counts and prints how the balance
// between aggregation and synchronization moves, then verifies the frame.
//
// Run with: go run ./examples/visualization
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	const nprocs = 32
	tile := workload.TileIO{TileX: 64, TileY: 64, Elem: 4} // 16 KiB tiles
	nx, ny := workload.Grid(nprocs)
	fmt.Printf("rendering a %dx%d grid of %dx%d-pixel tiles from %d ranks\n\n",
		nx, ny, tile.TileX, tile.TileY, nprocs)

	t := stats.NewTable("groups", "frame commit", "bandwidth", "sync share")
	for _, groups := range []int{1, 2, 4, 8, 16} {
		env := workload.Env{
			FS:     lustre.NewFS(lustre.DefaultConfig()),
			Stripe: storage.Stripe{Count: 16, Size: 64 << 10},
			Opts: core.Options{
				NumGroups: groups,
				Hints:     mpiio.Hints{CBBufferSize: 64 << 10},
			},
		}
		var res workload.Result
		var share float64
		mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			out := tile.Write(r, env, "frame.raw")
			bd := workload.MeanBreakdown(mpi.WorldComm(r), out.Breakdown)
			if r.WorldRank() == 0 {
				res = out
				if tot := bd.Total(); tot > 0 {
					share = bd.Sync / tot
				}
			}
			if err := tile.Check(r, env, "frame.raw"); err != nil {
				log.Fatal(err)
			}
		})
		t.AddRow(groups, fmt.Sprintf("%.1f ms", res.Elapsed*1e3),
			stats.MBps(res.Bandwidth()), fmt.Sprintf("%.0f%%", share*100))
	}
	fmt.Println(t)
	fmt.Println("every frame verified byte-exact against the rendered tiles")
}
