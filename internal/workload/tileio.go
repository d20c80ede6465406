package workload

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/recovery"
	"repro/internal/storage"
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

// drainFT is the fault-aware durability barrier closing a faulted write:
// under injected staging-node failures a loss can land after the last
// collective call, when no write remains to surface it, so the read path
// would observe punched bytes. The barrier drains the backend, and a
// reported staging loss makes every rank regenerate the lost ranges inside
// its own tile rows (tile data is a pure function of rank and offset) and
// rewrite them at write-through cost, then synchronize and retry. On every
// other configuration — any healthy run, any backend without staging — it
// is a no-op and charges nothing.
func (w TileIO) drainFT(r *mpi.Rank, comm *mpi.Comm, env Env, name string, steps int) {
	if !(env.FS.Params().Injecting && env.Opts.Run.Fault.HasBBFails()) {
		return
	}
	for attempt := 0; ; attempt++ {
		err := env.FS.Drain(r)
		var sl *storage.StagingLostError
		if err != nil {
			if !errors.As(err, &sl) || sl.File != name || attempt >= 4 {
				panic(fmt.Sprintf("tileio: drain of %q failed: %v", name, err))
			}
		}
		// Agree collectively whether anyone still sees a loss: a rank whose
		// barrier ran after the others' repairs healed everything must keep
		// iterating in lockstep with the ranks that are re-dumping.
		hit := int64(0)
		if sl != nil {
			hit = 1
		}
		if comm.AllreduceInt64([]int64{hit}, mpi.OpMax)[0] == 0 {
			return
		}
		if sl != nil {
			w.redump(r, env, name, sl.Lost, comm.Size(), steps)
		}
		comm.Barrier()
	}
}

// redump rewrites this rank's intersection of its tile view with the lost
// set: each view segment's overlap is regenerated from the fill pattern
// and written back through the erroring path. Across ranks the tiles
// partition the dataset, so every lost byte is re-dumped exactly once.
func (w TileIO) redump(r *mpi.Rank, env Env, name string, lost []storage.Extent, n, steps int) {
	f := env.FS.Open(r, name, env.Stripe)
	me := r.JobRank()
	v := w.View(me, n)
	ext := v.Filetype.Extent()
	per := w.TileBytes()
	for s := 0; s < steps; s++ {
		local := int64(s) * per
		for _, sg := range v.Filetype.Segments() {
			off := v.Disp + int64(s)*ext + sg.Off
			for _, e := range storage.Intersect(lost, []storage.Extent{{Off: off, Len: sg.Len}}) {
				seg := make([]byte, e.Len)
				Fill(seg, me, local+(e.Off-off))
				for {
					// A not-yet-reported second loss can surface here;
					// the report consumes it, and the retry lands
					// write-through on the degraded node.
					if werr := storage.TryWrite(r, f, e.Off, seg); werr == nil {
						break
					}
				}
			}
			local += sg.Len
		}
	}
}

// Write renders every tile collectively and returns this rank's Result.
func (w TileIO) Write(r *mpi.Rank, env Env, name string) Result {
	comm := mpi.WorldComm(r)
	f := core.Open(comm, env.FS, name, env.Stripe, env.Opts)
	me := r.JobRank()
	f.SetView(w.View(me, comm.Size()))
	data := make([]byte, w.TileBytes())
	Fill(data, me, 0)
	steps := w.Steps
	if steps < 1 {
		steps = 1
	}
	per := w.TileBytes()
	elapsed := measure(comm, func() {
		for s := 0; s < steps; s++ {
			if s > 0 {
				Fill(data, me, int64(s)*per)
			}
			off := int64(s) * per // frame s of the tiled view
			if w.Split {
				q := f.WriteAllBegin(off, data)
				if w.Compute > 0 {
					r.Compute(w.Compute)
				}
				f.WriteAllEnd(q)
			} else {
				if w.Compute > 0 {
					r.Compute(w.Compute)
				}
				f.WriteAtAll(off, data)
			}
		}
		w.drainFT(r, comm, env, name, steps)
	})
	bd := f.Breakdown()
	var ovl mpiio.OverlapStats
	if w.Split {
		ovl = GlobalOverlap(comm, f.Overlap())
	}
	// The aggregation collective runs only when the plan could have produced
	// recovery work: a healthy run must not move a single extra message.
	var rec recovery.FailoverStats
	if env.Opts.Run.Fault.HasCrashes() {
		rec = GlobalRecovery(comm, f.Recovery())
	}
	return Result{
		Elapsed:   elapsed,
		VirtBytes: per * int64(steps) * int64(comm.Size()) * scaleOf(env),
		Breakdown: bd,
		Plan:      f.LastPlan(),
		Overlap:   ovl,
		Recovery:  rec,
		Metrics:   snapshotMetrics(env),
	}
}

// Read reads every tile collectively.
func (w TileIO) Read(r *mpi.Rank, env Env, name string) Result {
	comm := mpi.WorldComm(r)
	f := core.Open(comm, env.FS, name, env.Stripe, env.Opts)
	me := r.JobRank()
	f.SetView(w.View(me, comm.Size()))
	steps := w.Steps
	if steps < 1 {
		steps = 1
	}
	per := w.TileBytes()
	var got []byte
	elapsed := measure(comm, func() {
		for s := 0; s < steps; s++ {
			off := int64(s) * per
			if w.Split {
				q := f.ReadAllBegin(off, per)
				if w.Compute > 0 {
					r.Compute(w.Compute)
				}
				got = f.ReadAllEnd(q)
			} else {
				if w.Compute > 0 {
					r.Compute(w.Compute)
				}
				got = f.ReadAtAll(off, per)
			}
		}
	})
	bd := f.Breakdown()
	var ovl mpiio.OverlapStats
	if w.Split {
		ovl = GlobalOverlap(comm, f.Overlap())
	}
	var rec recovery.FailoverStats
	if env.Opts.Run.Fault.HasCrashes() {
		rec = GlobalRecovery(comm, f.Recovery())
	}
	res := Result{
		Elapsed:   elapsed,
		VirtBytes: per * int64(steps) * int64(comm.Size()) * scaleOf(env),
		Breakdown: bd,
		Plan:      f.LastPlan(),
		Overlap:   ovl,
		Recovery:  rec,
		Metrics:   snapshotMetrics(env),
	}
	_ = got
	return res
}

// VerifyTile checks this rank's tile against the pattern after a Write,
// reading back through an independent view; it returns an error describing
// the first mismatch.
func (w TileIO) VerifyTile(r *mpi.Rank, env Env, name string) error {
	comm := mpi.WorldComm(r)
	me := r.JobRank()
	v := w.View(me, comm.Size())
	lf := env.FS.Open(r, name, env.Stripe)
	var pos int64
	for _, s := range v.Map(0, w.TileBytes()) {
		got := storage.Read(r, lf, s.Off, s.Len)
		for i, b := range got {
			if b != PatternByte(me, pos+int64(i)) {
				return fmt.Errorf("rank %d: tile byte %d (file off %d) = %d, want %d",
					me, pos+int64(i), s.Off+int64(i), b, PatternByte(me, pos+int64(i)))
			}
		}
		pos += s.Len
	}
	return nil
}
