package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/workload"
)

// Verification runners: each executes a workload with the given ParColl
// options and checks the resulting file byte-for-byte against the
// deterministic data pattern. They are used by the cmd tools' -verify
// flags and by the integration tests.

// VerifyIOR writes the preset's IOR workload and validates every rank's
// slab.
func VerifyIOR(p Preset, nprocs int, opts core.Options) error {
	env := EnvFor(p, p.IORScale, opts)
	w := workload.IOR{Block: p.IORBlock, Transfer: p.IORTransfer}
	var firstErr error
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, nil, func(r *mpi.Rank) {
		w.Write(r, env, "ior-verify")
		mpi.WorldComm(r).Barrier()
		if bad := w.Verify(r, env, "ior-verify"); bad >= 0 && firstErr == nil {
			firstErr = fmt.Errorf("ior: rank %d mismatch at offset %d", r.WorldRank(), bad)
		}
	})
	return firstErr
}

// VerifyTile writes the preset's tile workload and validates every tile.
func VerifyTile(p Preset, nprocs int, opts core.Options) error {
	env := EnvFor(p, p.TileScale, opts)
	var firstErr error
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, nil, func(r *mpi.Rank) {
		p.Tile.Write(r, env, "tile-verify")
		mpi.WorldComm(r).Barrier()
		if err := p.Tile.VerifyTile(r, env, "tile-verify"); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// VerifyBT writes the preset's BT-IO workload and validates all dumps by
// reading them back through the same ParColl handles (round-trip through
// the MPI-IO layer, which is how BT-IO itself verifies; under the default
// materialized intermediate layout the on-disk arrangement differs from
// the unpartitioned protocol's, but views map back identically).
func VerifyBT(p Preset, nprocs int, opts core.Options) error {
	if opts.NumGroups > 1 {
		opts.MaterializeIntermediate = true // match the Figure 10 configuration
	}
	env := EnvFor(p, p.BTScale, opts)
	var firstErr error
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, nil, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := core.Open(comm, env.FS, "bt-verify", env.Stripe, env.Opts)
		me := r.WorldRank()
		f.SetView(p.BT.View(me, nprocs))
		per := p.BT.DumpBytes(nprocs)
		data := make([]byte, per)
		for s := 0; s < p.BT.Steps; s++ {
			workload.Fill(data, me, int64(s)*per)
			f.WriteAtAll(int64(s)*per, data)
		}
		comm.Barrier()
		for s := 0; s < p.BT.Steps; s++ {
			got := f.ReadAtAll(int64(s)*per, per)
			for i, b := range got {
				want := workload.PatternByte(me, int64(s)*per+int64(i))
				if b != want && firstErr == nil {
					firstErr = fmt.Errorf("bt: rank %d step %d byte %d: got %d want %d", me, s, i, b, want)
					break
				}
			}
		}
	})
	return firstErr
}

// VerifyFlash writes the preset's Flash checkpoint and validates it.
func VerifyFlash(p Preset, nprocs int, opts core.Options) error {
	env := EnvFor(p, p.FlashScale, opts)
	var firstErr error
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, nil, func(r *mpi.Rank) {
		p.Flash.WriteCheckpoint(r, env, "flash-verify")
		mpi.WorldComm(r).Barrier()
		if err := p.Flash.VerifyCheckpoint(r, env, "flash-verify"); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}
