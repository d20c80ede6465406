package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/hdf5lite"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/storage"
)

// FlashIO models the Flash I/O benchmark (paper §5.4): the I/O kernel of
// the FLASH astrophysics code writing its checkpoint through HDF5 over
// MPI-IO. Each process owns NBlocks AMR blocks of NxB*NyB*NzB cells; the
// checkpoint stores NVars unknowns, each a dataset over all blocks. Within
// one dataset every process's region is contiguous — large requests with
// few segments, which is why the paper sees smaller (but still real)
// ParColl gains here.
type FlashIO struct {
	NxB, NyB, NzB int64 // block dimensions in cells
	NBlocks       int64 // blocks per process
	NVars         int   // unknowns (Flash writes 24)
	Elem          int64 // bytes per cell value (8: double)
}

// BlockBytes is the size of one block of one variable.
func (w FlashIO) BlockBytes() int64 { return w.NxB * w.NyB * w.NzB * w.Elem }

// PerProcBytes is one process's contribution to one dataset.
func (w FlashIO) PerProcBytes() int64 { return w.NBlocks * w.BlockBytes() }

// CheckpointBytes is the total checkpoint payload (excluding headers).
func (w FlashIO) CheckpointBytes(nprocs int) int64 {
	return w.PerProcBytes() * int64(nprocs) * int64(w.NVars)
}

// attrs builds the checkpoint's header metadata, as Flash records run
// parameters alongside its data.
func (w FlashIO) attrs(nprocs int) map[string]string {
	return map[string]string{
		"nprocs":       fmt.Sprint(nprocs),
		"nvars":        fmt.Sprint(w.NVars),
		"block_shape":  fmt.Sprintf("%dx%dx%d", w.NxB, w.NyB, w.NzB),
		"blocks_per_p": fmt.Sprint(w.NBlocks),
	}
}

func (w FlashIO) specs(nprocs int) []hdf5lite.Spec {
	specs := make([]hdf5lite.Spec, w.NVars)
	for v := range specs {
		specs[v] = hdf5lite.Spec{
			Name:  fmt.Sprintf("unk%02d", v),
			Total: w.PerProcBytes() * int64(nprocs),
		}
	}
	return specs
}

// Write writes a full checkpoint collectively (ParColl path) and returns
// this rank's Result.
func (w FlashIO) Write(r *mpi.Rank, env Env, name string) Result {
	comm := mpi.WorldComm(r)
	cf := core.Open(comm, env.FS, name, env.Stripe, env.Opts)
	me := r.JobRank()
	per := w.PerProcBytes()
	data := make([]byte, per)
	var h *hdf5lite.File
	elapsed := measure(comm, func() {
		h = hdf5lite.CreateWithAttrs(cf, me == 0, w.specs(comm.Size()), w.attrs(comm.Size()))
		for v := 0; v < w.NVars; v++ {
			Fill(data, me, int64(v)*per)
			h.WriteAll(fmt.Sprintf("unk%02d", v), int64(me)*per, data)
		}
	})
	return Result{
		Elapsed:   elapsed,
		VirtBytes: w.CheckpointBytes(comm.Size()) * scaleOf(env),
		Breakdown: cf.Breakdown(),
		Plan:      cf.LastPlan(),
	}
}

// indepFile adapts independent MPI-IO writes to the CollectiveFile
// interface, for the paper's "Cray w/o Coll" baseline.
type indepFile struct{ f *mpiio.File }

func (a indepFile) SetView(v datatype.View)        { a.f.SetView(v) }
func (a indepFile) WriteAtAll(off int64, d []byte) { a.f.WriteAt(off, d) }
func (a indepFile) ReadAtAll(off, n int64) []byte  { return a.f.ReadAt(off, n) }

// WriteCheckpointIndependent writes the checkpoint with plain independent
// writes (collective I/O disabled), as the paper's "Cray w/o Coll" series.
// Without collective buffering, HDF5 issues one write per block per
// variable — the small-request storm that makes the paper's independent
// series collapse to ~60 MB/s.
func (w FlashIO) WriteCheckpointIndependent(r *mpi.Rank, env Env, name string) Result {
	comm := mpi.WorldComm(r)
	mf := mpiio.Open(comm, env.FS, name, env.Stripe, env.Opts.Hints)
	me := r.JobRank()
	per := w.PerProcBytes()
	bb := w.BlockBytes()
	data := make([]byte, per)
	elapsed := measure(comm, func() {
		h := hdf5lite.CreateWithAttrs(indepFile{mf}, me == 0, w.specs(comm.Size()), w.attrs(comm.Size()))
		for v := 0; v < w.NVars; v++ {
			Fill(data, me, int64(v)*per)
			for b := int64(0); b < w.NBlocks; b++ {
				h.WriteAll(fmt.Sprintf("unk%02d", v), int64(me)*per+b*bb, data[b*bb:(b+1)*bb])
			}
		}
	})
	return Result{
		Elapsed:   elapsed,
		VirtBytes: w.CheckpointBytes(comm.Size()) * scaleOf(env),
		Breakdown: mf.Breakdown(),
	}
}

// Check validates the container header and reads this rank's data in
// every dataset back against the pattern.
func (w FlashIO) Check(r *mpi.Rank, env Env, name string) error {
	lf := env.FS.Open(r, name, env.Stripe)
	raw := storage.Read(r, lf, 0, hdf5lite.HeaderBytesAttrs(w.NVars, w.attrs(0)))
	ds, attrs, err := hdf5lite.ParseHeader(raw)
	if err != nil {
		return err
	}
	if attrs["nvars"] != fmt.Sprint(w.NVars) {
		return fmt.Errorf("flashio: header nvars attribute %q", attrs["nvars"])
	}
	if len(ds) != w.NVars {
		return fmt.Errorf("flashio: %d datasets, want %d", len(ds), w.NVars)
	}
	per := w.PerProcBytes()
	pieces := make([]datatype.Segment, len(ds))
	for v, d := range ds {
		pieces[v] = datatype.Segment{Off: d.Base + int64(r.JobRank())*per, Len: per}
	}
	return readBack(r, lf, pieces)
}
