package mpiio

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Split collectives must be semantically invisible: the file bytes a
// pipelined WriteAllBegin/End produces are exactly the blocking
// WriteAtAll's, and ReadAllBegin/End returns exactly what ReadAtAll would,
// regardless of how much the application computes between Begin and End.

// interleavedView is the strided layout that forces multi-round two-phase
// exchange (the regime where the pipeline actually reorders work).
func interleavedView(rank, n int, blocks, bs int64) datatype.View {
	return datatype.View{
		Disp:     int64(rank) * bs,
		Filetype: datatype.NewVector(blocks, bs, int64(n)*bs),
	}
}

func TestSplitWriteMatchesBlocking(t *testing.T) {
	const n = 6
	const blocks, bs = 40, 64
	for _, compute := range []float64{0, 1e-3} {
		write := func(split bool) *lustre.FS {
			fs := lustre.NewFS(lustre.DefaultConfig())
			mpi.Run(n, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
				f := Open(mpi.WorldComm(r), fs, "sw", testStripe(), Hints{CBBufferSize: 1024})
				f.SetView(interleavedView(r.WorldRank(), n, blocks, bs))
				data := pattern(r.WorldRank(), blocks*bs)
				if split {
					q := f.WriteAllBegin(0, data[:blocks*bs/2])
					if compute > 0 {
						r.Compute(compute)
					}
					f.WriteAllEnd(q)
					q = f.WriteAllBegin(blocks*bs/2, data[blocks*bs/2:])
					f.WriteAllEnd(q)
				} else {
					f.WriteAtAll(0, data[:blocks*bs/2])
					f.WriteAtAll(blocks*bs/2, data[blocks*bs/2:])
				}
			})
			return fs
		}
		var a, b []byte
		afs, bfs := write(true), write(false)
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			a = afs.Open(r, "sw", testStripe()).Contents()
			b = bfs.Open(r, "sw", testStripe()).Contents()
		})
		if !bytes.Equal(a, b) {
			t.Fatalf("compute=%g: split write bytes differ from blocking", compute)
		}
	}
}

func TestSplitReadMatchesBlocking(t *testing.T) {
	const n = 5
	const blocks, bs = 24, 96
	runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "sr", testStripe(), Hints{CBBufferSize: 1024})
		f.SetView(interleavedView(r.WorldRank(), n, blocks, bs))
		want := pattern(r.WorldRank(), blocks*bs)
		f.WriteAtAll(0, want)
		comm.Barrier()
		q := f.ReadAllBegin(0, blocks*bs)
		r.Compute(5e-4)
		got := f.ReadAllEnd(q)
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d: split read mismatch", r.WorldRank())
		}
		comm.Barrier()
		blocking := f.ReadAtAll(0, blocks*bs)
		if !bytes.Equal(blocking, want) {
			t.Errorf("rank %d: blocking read after split mismatch", r.WorldRank())
		}
	})
}

func TestSplitOverlapAccounting(t *testing.T) {
	// With generous compute between Begin and End the pipeline must hide
	// I/O (Hidden > 0) and finish sooner than blocking + identical compute.
	const n = 8
	const blocks, bs = 64, 512
	elapsed := func(split bool) (float64, OverlapStats) {
		var ovl OverlapStats
		fs := lustre.NewFS(lustre.DefaultConfig())
		end := mpi.Run(n, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			f := Open(mpi.WorldComm(r), fs, "ov", testStripe(), Hints{CBBufferSize: 4096})
			f.SetView(interleavedView(r.WorldRank(), n, blocks, bs))
			data := pattern(r.WorldRank(), blocks*bs)
			if split {
				q := f.WriteAllBegin(0, data)
				r.Compute(0.05)
				f.WriteAllEnd(q)
			} else {
				r.Compute(0.05)
				f.WriteAtAll(0, data)
			}
			if r.WorldRank() == 0 {
				ovl = f.Overlap()
			}
		})
		return end, ovl
	}
	split, ovl := elapsed(true)
	block, bovl := elapsed(false)
	if ovl.Hidden <= 0 {
		t.Errorf("split run hid nothing: %+v", ovl)
	}
	if bovl != (OverlapStats{}) {
		t.Errorf("blocking run has overlap stats: %+v", bovl)
	}
	if split >= block {
		t.Errorf("split run (%g) not faster than blocking (%g)", split, block)
	}
}

func TestSplitTraceObservesWithoutPerturbing(t *testing.T) {
	// The round tracer is an observer: enabling it must not move any clock.
	const n = 4
	const blocks, bs = 16, 128
	runOnce := func(rec *obs.Recorder) float64 {
		fs := lustre.NewFS(lustre.DefaultConfig())
		return mpi.Run(n, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			r.SetTracer(rec)
			f := Open(mpi.WorldComm(r), fs, "tr", testStripe(), Hints{CBBufferSize: 1024})
			f.SetView(interleavedView(r.WorldRank(), n, blocks, bs))
			q := f.WriteAllBegin(0, pattern(r.WorldRank(), blocks*bs))
			r.Compute(1e-3)
			f.WriteAllEnd(q)
		})
	}
	rec := obs.NewRecorder()
	traced := runOnce(rec)
	plain := runOnce(nil)
	if traced != plain {
		t.Errorf("tracing moved the clock: %x vs %x", traced, plain)
	}
	kinds := map[string]bool{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"round-sync", "round-exchange", "round-io", "hidden"} {
		if !kinds[k] {
			t.Errorf("trace missing %q spans (got %v)", k, kinds)
		}
	}
}
