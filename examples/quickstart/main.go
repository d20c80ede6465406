// Quickstart: open a file with ParColl, write collectively from eight
// simulated MPI ranks, and read it back.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/storage"
)

func main() {
	const (
		nprocs  = 8
		perRank = 1 << 20 // 1 MiB per rank
	)
	fs := lustre.NewFS(lustre.DefaultConfig())
	stripe := storage.Stripe{Count: 8, Size: 1 << 20}

	// mpi.Run spawns the ranks on a simulated Cray-XT-like cluster and
	// returns the virtual wall time of the job.
	elapsed := mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)

		// ParColl with 4 subgroups; hints pass through to the underlying
		// two-phase protocol of each subgroup.
		f := core.Open(comm, fs, "quickstart.dat", stripe, core.Options{NumGroups: 4})

		// Each rank sees its own contiguous slab through a file view.
		me := r.WorldRank()
		f.SetView(datatype.View{
			Disp:     int64(me) * perRank,
			Filetype: datatype.Contig(perRank),
		})

		data := bytes.Repeat([]byte{byte('A' + me)}, perRank)
		f.WriteAtAll(0, data)

		comm.Barrier()
		back := f.ReadAtAll(0, perRank)
		if !bytes.Equal(back, data) {
			log.Fatalf("rank %d: read-back mismatch", me)
		}

		if me == 0 {
			plan := f.LastPlan()
			bd := f.Breakdown()
			fmt.Printf("partitioning: %v mode, %d groups, aggregators %v\n",
				plan.Mode, plan.NumGroups, plan.Aggregators)
			fmt.Printf("rank 0 time split: sync %.3fs exchange %.3fs io %.3fs\n",
				bd.Sync, bd.Exchange, bd.IO)
		}
	})
	fmt.Printf("wrote and re-read %d MiB across %d ranks in %.3f virtual seconds\n",
		nprocs*perRank>>20, nprocs, elapsed)
}
