package workload

import (
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
)

// BTIO models NAS BT-IO full mode (paper §5.3): the BT solver's 3D solution
// array undergoes diagonal multi-partitioning over P = k*k processes, each
// owning k cells (sub-cubes) scattered along a diagonal, and the solution
// is appended to the output file every few timesteps with collective MPI-IO
// through a structured datatype. Each process's cells spread across the
// whole solution — the paper's Figure 4(c) pattern, which forces ParColl's
// intermediate file views.
type BTIO struct {
	N     int64 // solution cube edge, in cells (must be divisible by k)
	Elem  int64 // bytes per cell (BT stores 5 doubles: 40 bytes)
	Steps int   // number of solution dumps
}

// K returns the partitioning factor for nprocs (nprocs must be a square).
func K(nprocs int) int {
	k := 1
	for k*k < nprocs {
		k++
	}
	if k*k != nprocs {
		panic("workload: BT-IO needs a square process count")
	}
	return k
}

// CellCoords lists rank's k cell coordinates under diagonal
// multi-partitioning: cell m of process (i,j) sits at
// ((i+m) mod k, (j+m) mod k, m).
func CellCoords(rank, k int) [][3]int {
	i, j := rank%k, rank/k
	cells := make([][3]int, k)
	for m := 0; m < k; m++ {
		cells[m] = [3]int{(i + m) % k, (j + m) % k, m}
	}
	return cells
}

// View builds rank's file view over one solution dump: the union of its k
// sub-cubes within the N^3 cell array (z-major order), expressed as an
// indexed datatype. The filetype's extent is forced to the full cube so
// logical offsets beyond one dump tile into the next (append semantics).
func (w BTIO) View(rank, nprocs int) datatype.View {
	k := K(nprocs)
	if (w.N/int64(k))*int64(k) != w.N {
		panic("workload: BT-IO N must be divisible by k")
	}
	cube := w.N * w.N * w.N * w.Elem
	return datatype.View{Disp: 0, Filetype: padIndexed(w.segsOf(rank, k), cube)}
}

// segsOf lists rank's byte segments within one solution dump.
func (w BTIO) segsOf(rank, k int) []datatype.Segment {
	c := w.N / int64(k)
	rowBytes := w.N * w.Elem
	planeBytes := w.N * rowBytes
	var segs []datatype.Segment
	for _, cell := range CellCoords(rank, k) {
		x0, y0, z0 := int64(cell[0])*c, int64(cell[1])*c, int64(cell[2])*c
		for z := z0; z < z0+c; z++ {
			for y := y0; y < y0+c; y++ {
				segs = append(segs, datatype.Segment{
					Off: z*planeBytes + y*rowBytes + x0*w.Elem,
					Len: c * w.Elem,
				})
			}
		}
	}
	return segs
}

// padIndexed wraps an indexed type, forcing its extent to the given value.
type paddedType struct {
	datatype.Type
	extent int64
}

func (p paddedType) Extent() int64 { return p.extent }

func padIndexed(segs []datatype.Segment, extent int64) datatype.Type {
	return paddedType{Type: datatype.NewIndexed(segs), extent: extent}
}

// DumpBytes is one rank's data per solution dump.
func (w BTIO) DumpBytes(nprocs int) int64 {
	k := int64(K(nprocs))
	c := w.N / k
	return k * c * c * c * w.Elem
}

// frames is BT-IO's step body for rank me of n: Steps dumps of the
// solution through the diagonal view.
func (w BTIO) frames(me, n int) frames {
	return frames{view: w.View(me, n), per: w.DumpBytes(n), steps: w.Steps}
}

// Write appends Steps solution dumps collectively and returns this rank's
// Result.
func (w BTIO) Write(r *mpi.Rank, env Env, name string) Result {
	return dump(r, env, name, true, w.frames)
}

// Read reads all dumps back collectively.
func (w BTIO) Read(r *mpi.Rank, env Env, name string) Result {
	return dump(r, env, name, false, w.frames)
}

// Check reads every dump of this rank back collectively, through a handle
// opened with the same options as the write — the round trip BT-IO itself
// performs — and compares it to the pattern. Reading through the view
// (rather than raw file offsets) is what makes this valid under
// MaterializeIntermediate, where the on-disk arrangement differs from the
// unpartitioned protocol's but views map back identically. Every rank reads
// every dump, mismatch or not: the reads are collective.
func (w BTIO) Check(r *mpi.Rank, env Env, name string) error {
	comm := mpi.WorldComm(r)
	f := core.Open(comm, env.FS, name, env.Stripe, env.Opts)
	me := r.JobRank()
	f.SetView(w.View(me, comm.Size()))
	per := w.DumpBytes(comm.Size())
	var err error
	for s := 0; s < w.Steps; s++ {
		got := f.ReadAtAll(int64(s)*per, per)
		if err == nil {
			err = compare(me, got, int64(s)*per)
		}
	}
	return err
}
