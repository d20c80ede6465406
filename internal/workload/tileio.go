package workload

import (
	"repro/internal/datatype"
	"repro/internal/mpi"
)

// TileIO models the MPI-Tile-IO benchmark of the paper's §5.2: a dense 2D
// dataset divided into an nx-by-ny grid of tiles, one tile per process,
// written (or read) in a single collective call. The access is
// non-contiguous: each tile contributes TileY separate row segments. The
// paper used 1024x768-element tiles with 64-byte elements (48 MB/process).
type TileIO struct {
	TileX, TileY int64 // tile size in elements
	Elem         int64 // bytes per element
	// Steps repeats the collective dump that many times (frames of an
	// animation, checkpoints); zero or one means a single dump, matching
	// the original benchmark.
	Steps int
	// Compute is seconds of per-rank computation between consecutive
	// collectives — the work split collectives can hide I/O behind.
	Compute float64
	// Split switches the collective calls to split semantics
	// (WriteAllBegin/End): the compute of each step runs between Begin and
	// End, overlapping the in-flight rounds' I/O tails.
	Split bool
}

// Grid factors nprocs into the most square nx >= ny arrangement (ny is the
// largest divisor not exceeding the square root).
func Grid(nprocs int) (nx, ny int) {
	ny = 1
	for d := 1; d*d <= nprocs; d++ {
		if nprocs%d == 0 {
			ny = d
		}
	}
	return nprocs / ny, ny
}

// View builds rank's subarray file view for an nprocs-tile dataset.
func (w TileIO) View(rank, nprocs int) datatype.View {
	nx, ny := Grid(nprocs)
	_ = ny
	row, col := rank/nx, rank%nx
	sub := datatype.NewSubarray(
		[]int64{int64(nprocs/nx) * w.TileY, int64(nx) * w.TileX},
		[]int64{w.TileY, w.TileX},
		[]int64{int64(row) * w.TileY, int64(col) * w.TileX},
		w.Elem,
	)
	return datatype.View{Disp: 0, Filetype: sub}
}

// TileBytes returns the per-process data size.
func (w TileIO) TileBytes() int64 { return w.TileX * w.TileY * w.Elem }

// frames is the tile workload's step body for rank me of n: Steps frames
// (at least one) of one tile each, closed by the staging-loss barrier.
func (w TileIO) frames(me, n int) frames {
	return frames{view: w.View(me, n), per: w.TileBytes(), steps: max(w.Steps, 1),
		compute: w.Compute, split: w.Split, settle: true}
}

// Write renders every tile collectively and returns this rank's Result.
func (w TileIO) Write(r *mpi.Rank, env Env, name string) Result {
	return dump(r, env, name, true, w.frames)
}

// Read reads every tile collectively.
func (w TileIO) Read(r *mpi.Rank, env Env, name string) Result {
	return dump(r, env, name, false, w.frames)
}

// Check reads every frame of this rank's tile back through an independent
// handle, piece by coalesced view piece, and compares it to the pattern.
func (w TileIO) Check(r *mpi.Rank, env Env, name string) error {
	fr := w.frames(r.JobRank(), mpi.WorldComm(r).Size())
	lf := env.FS.Open(r, name, env.Stripe)
	return readBack(r, lf, fr.view.Map(0, int64(fr.steps)*fr.per))
}
