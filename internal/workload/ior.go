package workload

import (
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
)

// IOR models the IOR benchmark's shared-file collective mode used in the
// paper's §5.1: every process writes Block contiguous bytes at offset
// rank*Block into one shared file, issuing one collective write per
// Transfer-sized unit. The paper ran 512 MB per process in 4 MB units.
type IOR struct {
	Block    int64 // real bytes per process
	Transfer int64 // real bytes per collective call
	// Strided switches from IOR's segmented layout (rank r owns the
	// contiguous slab [r*Block, (r+1)*Block)) to its interleaved one: the
	// file is a round-robin of Transfer-sized chunks, rank r owning chunks
	// r, r+nprocs, r+2*nprocs, ... Every rank then overlaps every
	// aggregator's file domain — the fine-grained sharing that stresses the
	// exchange phase hardest.
	Strided bool
}

// view builds rank's file view for either layout.
func (w IOR) view(rank, nprocs int) datatype.View {
	if !w.Strided {
		return datatype.View{Disp: int64(rank) * w.Block, Filetype: datatype.Contig(w.Block)}
	}
	n := (w.Block + w.Transfer - 1) / w.Transfer
	ft := datatype.NewVector(n, w.Transfer, int64(nprocs)*w.Transfer)
	return datatype.View{Disp: int64(rank) * w.Transfer, Filetype: ft}
}

// Write runs the collective-write phase and returns this rank's Result.
func (w IOR) Write(r *mpi.Rank, env Env, name string) Result {
	comm := mpi.WorldComm(r)
	f := core.Open(comm, env.FS, name, env.Stripe, env.Opts)
	me := r.JobRank()
	f.SetView(w.view(me, comm.Size()))
	buf := make([]byte, w.Transfer)
	elapsed := measure(comm, func() {
		for off := int64(0); off < w.Block; off += w.Transfer {
			n := w.Transfer
			if off+n > w.Block {
				n = w.Block - off
			}
			Fill(buf[:n], me, off)
			f.WriteAtAll(off, buf[:n])
		}
	})
	return Result{
		Elapsed:   elapsed,
		VirtBytes: w.Block * int64(comm.Size()) * scaleOf(env),
		Breakdown: f.Breakdown(),
		Plan:      f.LastPlan(),
	}
}

// Read runs the collective-read phase (the file must have been written).
func (w IOR) Read(r *mpi.Rank, env Env, name string) Result {
	comm := mpi.WorldComm(r)
	f := core.Open(comm, env.FS, name, env.Stripe, env.Opts)
	me := r.JobRank()
	f.SetView(w.view(me, comm.Size()))
	elapsed := measure(comm, func() {
		for off := int64(0); off < w.Block; off += w.Transfer {
			n := w.Transfer
			if off+n > w.Block {
				n = w.Block - off
			}
			f.ReadAtAll(off, n)
		}
	})
	return Result{
		Elapsed:   elapsed,
		VirtBytes: w.Block * int64(comm.Size()) * scaleOf(env),
		Breakdown: f.Breakdown(),
		Plan:      f.LastPlan(),
	}
}

// Check reads this rank's data (either layout) back piece by piece and
// compares it to the pattern.
func (w IOR) Check(r *mpi.Rank, env Env, name string) error {
	f := env.FS.Open(r, name, env.Stripe)
	return readBack(r, f, w.view(r.JobRank(), mpi.WorldComm(r).Size()).Map(0, w.Block))
}

// Verify returns Check's first mismatching rank-local offset, or -1.
//
// Deprecated: use Check.
func (w IOR) Verify(r *mpi.Rank, env Env, name string) int64 {
	if m, ok := w.Check(r, env, name).(*MismatchError); ok {
		return m.Off
	}
	return -1
}

// WriteIndependent runs the shared-file write with independent I/O — the
// paper's "w/o Coll" baseline. Each rank issues its whole block through
// its view in one call; with Strided set that call maps to Block/Transfer
// noncontiguous file segments, which go to storage as per-extent requests
// on a plain backend and as one vectored list-I/O request on a list-I/O
// backend. This is exactly the access pattern Ching et al. built list-I/O
// for.
func (w IOR) WriteIndependent(r *mpi.Rank, env Env, name string) Result {
	comm := mpi.WorldComm(r)
	f := core.Open(comm, env.FS, name, env.Stripe, env.Opts)
	me := r.JobRank()
	f.SetView(w.view(me, comm.Size()))
	buf := make([]byte, w.Block)
	Fill(buf, me, 0)
	elapsed := measure(comm, func() {
		f.WriteAt(0, buf)
	})
	return Result{
		Elapsed:   elapsed,
		VirtBytes: w.Block * int64(comm.Size()) * scaleOf(env),
		Breakdown: f.Breakdown(),
	}
}
