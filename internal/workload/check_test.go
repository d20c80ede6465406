package workload

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/hdf5lite"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// punchedCheck writes w at n ranks, overwrites the byte at rank victim's
// pattern offset local with a wrong value, and returns every rank's Check
// error. pieces lists the victim's file pieces in pattern order.
func punchedCheck(t *testing.T, w Workload, n, victim int, local int64, pieces func(r *mpi.Rank, env Env, name string) []datatype.Segment) []error {
	t.Helper()
	env := testEnv(core.Options{NumGroups: 2})
	errs := make([]error, n)
	mpi.Run(n, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		w.Write(r, env, "f")
		comm := mpi.WorldComm(r)
		comm.Barrier()
		if r.JobRank() == victim {
			off, rest := int64(-1), local
			for _, p := range pieces(r, env, "f") {
				if rest < p.Len {
					off = p.Off + rest
					break
				}
				rest -= p.Len
			}
			if off < 0 {
				t.Errorf("offset %d lies beyond rank %d's data", local, victim)
			} else {
				f := env.FS.Open(r, "f", env.Stripe)
				storage.Write(r, f, off, []byte{PatternByte(victim, local) + 1})
			}
		}
		comm.Barrier()
		errs[r.JobRank()] = w.Check(r, env, "f")
	})
	return errs
}

// TestTileCheckCoversEveryFrame: a byte wrong in the second frame of a
// split two-step tile write must fail the check, not only one in frame 0.
func TestTileCheckCoversEveryFrame(t *testing.T) {
	w := TileIO{TileX: 32, TileY: 24, Elem: 4, Steps: 2, Compute: 1e-3, Split: true}
	const n = 8
	errs := punchedCheck(t, w, n, 0, w.TileBytes()+5, func(r *mpi.Rank, _ Env, _ string) []datatype.Segment {
		return w.frames(0, n).segments()
	})
	if errs[0] == nil {
		t.Fatal("Check passed a tile whose frame 1 was punched")
	}
}

// TestCheckReportsMismatch: every workload reports a punched byte as a
// *MismatchError carrying the owning rank and its pattern offset, and no
// other rank fails.
func TestCheckReportsMismatch(t *testing.T) {
	const n = 4
	tile := TileIO{TileX: 32, TileY: 8, Elem: 1, Steps: 2}
	ior := IOR{Block: 8192, Transfer: 2048, Strided: true}
	bt := BTIO{N: 8, Elem: 4, Steps: 2}
	ckpt := CheckpointBurst{BlockBytes: 1024, Steps: 2, Interleave: 256}
	flash := FlashIO{NxB: 2, NyB: 2, NzB: 2, NBlocks: 2, NVars: 3, Elem: 8}
	for _, c := range []struct {
		name   string
		w      Workload
		local  int64
		pieces func(r *mpi.Rank, env Env, name string) []datatype.Segment
	}{
		{"tileio", tile, tile.TileBytes() + 5, func(*mpi.Rank, Env, string) []datatype.Segment {
			return tile.frames(1, n).segments()
		}},
		{"ior", ior, 5000, func(*mpi.Rank, Env, string) []datatype.Segment {
			return ior.view(1, n).Map(0, ior.Block)
		}},
		{"btio", bt, bt.DumpBytes(n) + 77, func(*mpi.Rank, Env, string) []datatype.Segment {
			return bt.View(1, n).Map(0, int64(bt.Steps)*bt.DumpBytes(n))
		}},
		{"checkpoint", ckpt, 1024 + 300, func(*mpi.Rank, Env, string) []datatype.Segment {
			return ckpt.pieces(1, n, ckpt.Steps)
		}},
		{"flashio", flash, 2*flash.PerProcBytes() + 7, func(r *mpi.Rank, env Env, name string) []datatype.Segment {
			f := env.FS.Open(r, name, env.Stripe)
			ds, _, err := hdf5lite.ParseHeader(storage.Read(r, f, 0, hdf5lite.HeaderBytesAttrs(flash.NVars, flash.attrs(0))))
			if err != nil {
				t.Error(err)
			}
			var out []datatype.Segment
			for _, d := range ds {
				out = append(out, datatype.Segment{Off: d.Base + flash.PerProcBytes(), Len: flash.PerProcBytes()})
			}
			return out
		}},
	} {
		errs := punchedCheck(t, c.w, n, 1, c.local, c.pieces)
		var m *MismatchError
		if !errors.As(errs[1], &m) || m.Rank != 1 || m.Off != c.local {
			t.Errorf("%s: rank 1 Check = %v, want a mismatch of rank 1 at offset %d", c.name, errs[1], c.local)
		}
		for rank, err := range errs {
			if rank != 1 && err != nil {
				t.Errorf("%s: rank %d: %v", c.name, rank, err)
			}
		}
	}
}
