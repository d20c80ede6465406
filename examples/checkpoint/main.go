// Checkpoint: a Flash-style application checkpoint — every rank owns a set
// of AMR blocks and periodically dumps all solution variables through an
// HDF5-like container over collective I/O. The example writes checkpoints
// with and without ParColl and with an explicit aggregator hint, then
// validates the container.
//
// Run with: go run ./examples/checkpoint
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
	const nprocs = 64
	flash := workload.FlashIO{NxB: 8, NyB: 8, NzB: 8, NBlocks: 4, NVars: 8, Elem: 8}
	fmt.Printf("checkpointing %s from %d ranks (%d vars, %d blocks/rank)\n\n",
		stats.Bytes(flash.CheckpointBytes(nprocs)), nprocs, flash.NVars, flash.NBlocks)

	configs := []struct {
		label string
		opts  core.Options
	}{
		{"two-phase baseline", core.Options{}},
		{"ParColl, 8 groups", core.Options{NumGroups: 8}},
		{"ParColl, 8 groups, 16 aggregators", core.Options{
			NumGroups: 8,
			Hints:     mpiio.Hints{CBNodes: 16},
		}},
	}
	t := stats.NewTable("configuration", "checkpoint time", "bandwidth")
	for _, cfg := range configs {
		env := workload.Env{
			FS:     lustre.NewFS(lustre.DefaultConfig()),
			Stripe: storage.Stripe{Count: 32, Size: 256 << 10},
			Opts:   cfg.opts,
		}
		var res workload.Result
		mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			out := flash.Write(r, env, "chk0001")
			if r.WorldRank() == 0 {
				res = out
			}
			mpi.WorldComm(r).Barrier()
			if err := flash.Check(r, env, "chk0001"); err != nil {
				log.Fatal(err)
			}
		})
		t.AddRow(cfg.label, fmt.Sprintf("%.1f ms", res.Elapsed*1e3), stats.MBps(res.Bandwidth()))
	}
	fmt.Println(t)
	fmt.Println("all checkpoints verified (header parse + per-rank data)")
}
