package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/lustre"
	"repro/internal/mpi"
)

// fatCluster is the default cluster with a fat-node PE count and mapping.
func fatCluster(pes int, m cluster.Mapping) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.PEsPerNode = pes
	cfg.Mapping = m
	return cfg
}

func runIOFat(t *testing.T, nprocs, pes int, m cluster.Mapping, seed int64, body func(r *mpi.Rank, fs *lustre.FS)) *lustre.FS {
	t.Helper()
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(nprocs, fatCluster(pes, m), seed, func(r *mpi.Rank) {
		body(r, fs)
	})
	return fs
}

// interleavedWrite is the shared workload of the hier<->flat equivalence
// tests: every rank owns every n-th block of 64 bytes, a small collective
// buffer forcing several exchange rounds.
func interleavedWrite(f *File, rank, n int) {
	const blocks, bs = 40, 64
	ft := datatype.NewVector(blocks, bs, int64(n)*bs)
	f.SetView(datatype.View{Disp: int64(rank) * bs, Filetype: ft})
	f.WriteAtAll(0, pattern(rank, blocks*bs))
}

func interleavedWant(n int) (func(off int64) byte, int64) {
	const blocks, bs = 40, 64
	return func(off int64) byte {
		block := off / bs
		rank := int(block % int64(n))
		i := int((block/int64(n))*bs + off%bs)
		return byte(rank*37 + i*11 + 5)
	}, int64(n) * blocks * bs
}

// TestHierarchicalWriteMatchesFlat pins the core equivalence: with
// intra-node aggregation on, the file bytes are identical to the flat
// protocol's, across fat block nodes, uneven last nodes, and cyclic maps.
func TestHierarchicalWriteMatchesFlat(t *testing.T) {
	for _, tc := range []struct {
		n, pes int
		m      cluster.Mapping
	}{
		{16, 8, cluster.Block}, {16, 4, cluster.Block}, {10, 4, cluster.Block},
		{12, 4, cluster.Cyclic}, {8, 16, cluster.Block},
	} {
		tc := tc
		t.Run(fmt.Sprintf("n%d pes%d %v", tc.n, tc.pes, tc.m), func(t *testing.T) {
			write := func(intra bool) *lustre.FS {
				return runIOFat(t, tc.n, tc.pes, tc.m, 1, func(r *mpi.Rank, fs *lustre.FS) {
					comm := mpi.WorldComm(r)
					f := Open(comm, fs, "eq", testStripe(), Hints{CBBufferSize: 1024, IntraNode: intra})
					if intra && !f.Hierarchical() {
						t.Errorf("two-level path not armed with default aggregators")
					}
					interleavedWrite(f, r.WorldRank(), tc.n)
				})
			}
			flat, hier := write(false), write(true)
			want, size := interleavedWant(tc.n)
			checkContents(t, flat, "eq", want, size)
			checkContents(t, hier, "eq", want, size)
			// Byte-for-byte against each other too, not just the pattern.
			var a, b []byte
			mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
				a = flat.Open(r, "eq", testStripe()).Contents()
				b = hier.Open(r, "eq", testStripe()).Contents()
			})
			if !bytes.Equal(a, b) {
				t.Fatal("hierarchical and flat writes produced different files")
			}
		})
	}
}

// TestHierarchicalReadMatchesFlat writes flat, then reads the file back
// through both paths: every rank's strided slice must be byte-identical.
func TestHierarchicalReadMatchesFlat(t *testing.T) {
	const n, pes = 16, 8
	const blocks, bs = 40, 64
	fs := runIOFat(t, n, pes, cluster.Block, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "rd", testStripe(), Hints{CBBufferSize: 1024})
		interleavedWrite(f, r.WorldRank(), n)
	})
	for _, intra := range []bool{false, true} {
		mpi.Run(n, fatCluster(pes, cluster.Block), 1, func(r *mpi.Rank) {
			comm := mpi.WorldComm(r)
			f := Open(comm, fs, "rd", testStripe(), Hints{CBBufferSize: 1024, IntraNode: intra})
			ft := datatype.NewVector(blocks, bs, n*bs)
			f.SetView(datatype.View{Disp: int64(r.WorldRank()) * bs, Filetype: ft})
			got := f.ReadAtAll(0, blocks*bs)
			if !bytes.Equal(got, pattern(r.WorldRank(), blocks*bs)) {
				t.Errorf("intra=%v rank %d read back wrong bytes", intra, r.WorldRank())
			}
		})
	}
}

// TestHierarchicalSplitCollectives drives the two-level branches through
// the split-collective pipeline (Begin/End), where the read path's final
// round is deferred into End.
func TestHierarchicalSplitCollectives(t *testing.T) {
	const n, pes = 16, 8
	const blocks, bs = 40, 64
	fs := runIOFat(t, n, pes, cluster.Block, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "sp", testStripe(), Hints{CBBufferSize: 1024, IntraNode: true})
		if !f.Hierarchical() {
			t.Error("two-level path not armed")
		}
		ft := datatype.NewVector(blocks, bs, n*bs)
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * bs, Filetype: ft})
		q := f.WriteAllBegin(0, pattern(r.WorldRank(), blocks*bs))
		r.Compute(1e-4)
		f.WriteAllEnd(q)
		rq := f.ReadAllBegin(0, blocks*bs)
		r.Compute(1e-4)
		got := f.ReadAllEnd(rq)
		if !bytes.Equal(got, pattern(r.WorldRank(), blocks*bs)) {
			t.Errorf("rank %d split read back wrong bytes", r.WorldRank())
		}
	})
	want, size := interleavedWant(n)
	checkContents(t, fs, "sp", want, size)
}

// TestHierarchicalRunTwiceIdentical pins determinism of the two-level
// protocol end to end: identical seeds, identical virtual finish times.
func TestHierarchicalRunTwiceIdentical(t *testing.T) {
	run := func() float64 {
		fs := lustre.NewFS(lustre.DefaultConfig())
		return mpi.Run(16, fatCluster(8, cluster.Block), 7, func(r *mpi.Rank) {
			comm := mpi.WorldComm(r)
			f := Open(comm, fs, "det", testStripe(), Hints{CBBufferSize: 1024, IntraNode: true})
			interleavedWrite(f, r.WorldRank(), 16)
		})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two-level runs differ: %v vs %v", a, b)
	}
}

// TestHierViabilityFallback: an explicit aggregator list naming a
// non-leader rank must fall back to the flat path — on every rank, with
// correct results.
func TestHierViabilityFallback(t *testing.T) {
	const n, pes = 8, 4
	fs := runIOFat(t, n, pes, cluster.Block, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		// Rank 1 shares node 0 with leader rank 0: not node-minimal.
		h := Hints{CBBufferSize: 1024, IntraNode: true, AggregatorList: []int{1, 4}}
		f := Open(comm, fs, "fb", testStripe(), h)
		if f.Hierarchical() {
			t.Errorf("rank %d armed two-level with a non-leader aggregator", r.WorldRank())
		}
		interleavedWrite(f, r.WorldRank(), n)
	})
	want, size := interleavedWant(n)
	checkContents(t, fs, "fb", want, size)
}

// TestHierCrashPlanFallsBackToFlat: crash-carrying fault plans arm the
// resilient path, which is flat; IntraNode must not interfere with it.
func TestHierCrashPlanFallsBackToFlat(t *testing.T) {
	const n, pes = 8, 4
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 0, Call: 1, Round: 0}}}
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.RunPlan(n, fatCluster(pes, cluster.Block), 1, plan, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "cr", testStripe(), Hints{CBBufferSize: 1024, IntraNode: true})
		if f.Hierarchical() {
			t.Errorf("rank %d armed two-level under a crash plan", r.WorldRank())
		}
		interleavedWrite(f, r.WorldRank(), n)
	})
	want, size := interleavedWant(n)
	checkContents(t, fs, "cr", want, size)
}

// TestHierStragglerPlanStaysHierarchical: crash-free fault plans (compute
// noise) keep the two-level path armed and correct.
func TestHierStragglerPlanStaysHierarchical(t *testing.T) {
	const n, pes = 16, 8
	plan, err := fault.Scenario(fault.OneStraggler)
	if err != nil {
		t.Fatal(err)
	}
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.RunPlan(n, fatCluster(pes, cluster.Block), 3, plan, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "st", testStripe(), Hints{CBBufferSize: 1024, IntraNode: true})
		if !f.Hierarchical() {
			t.Errorf("rank %d lost the two-level path under a crash-free plan", r.WorldRank())
		}
		interleavedWrite(f, r.WorldRank(), n)
	})
	want, size := interleavedWant(n)
	checkContents(t, fs, "st", want, size)
}
