package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/storage"
)

// randomDisjointViews builds one random Indexed view per rank such that no
// two ranks' segments overlap: the file is cut into slots, each slot
// assigned to a random rank with a random sub-extent.
func randomDisjointViews(rng *rand.Rand, nprocs int) ([]datatype.View, []int64) {
	slots := nprocs * (2 + rng.Intn(6))
	const slotSize = 257 // deliberately unaligned
	segs := make([][]datatype.Segment, nprocs)
	for s := 0; s < slots; s++ {
		r := rng.Intn(nprocs)
		off := int64(s*slotSize) + rng.Int63n(20)
		ln := rng.Int63n(slotSize-25) + 1
		segs[r] = append(segs[r], datatype.Segment{Off: off, Len: ln})
	}
	views := make([]datatype.View, nprocs)
	sizes := make([]int64, nprocs)
	for r := 0; r < nprocs; r++ {
		if len(segs[r]) == 0 {
			views[r] = datatype.View{Disp: 0, Filetype: datatype.Contig(0)}
			continue
		}
		ft := datatype.NewIndexed(segs[r])
		views[r] = datatype.View{Disp: 0, Filetype: ft}
		sizes[r] = ft.Size()
	}
	return views, sizes
}

// TestFuzzParCollAgainstIndependent drives random disjoint layouts through
// ParColl in strict-physical mode and checks the resulting file is
// byte-identical to independent writes of the same data.
func TestFuzzParCollAgainstIndependent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 + rng.Intn(7)
		ngroups := 1 + rng.Intn(nprocs)
		force := rng.Intn(2) == 0
		views, sizes := randomDisjointViews(rng, nprocs)
		data := make([][]byte, nprocs)
		for r := range data {
			data[r] = make([]byte, sizes[r])
			rng.Read(data[r])
		}
		stripe := storage.Stripe{Count: 3, Size: 701}

		pcFS := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(nprocs, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			f := Open(mpi.WorldComm(r), pcFS, "fz", stripe, Options{
				NumGroups:         ngroups,
				ForceIntermediate: force,
				Hints:             mpiio.Hints{CBBufferSize: 389},
			})
			f.SetView(views[r.WorldRank()])
			f.WriteAtAll(0, data[r.WorldRank()])
		})

		refFS := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(nprocs, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			f := mpiio.Open(mpi.WorldComm(r), refFS, "fz", stripe, mpiio.Hints{})
			f.SetView(views[r.WorldRank()])
			f.WriteAt(0, data[r.WorldRank()])
		})

		var a, b []byte
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			a = pcFS.Open(r, "fz", stripe).Contents()
			b = refFS.Open(r, "fz", stripe).Contents()
		})
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestFuzzMaterializedRoundTrip drives the same random layouts through the
// materialized intermediate layout and checks the application-level
// round trip: every rank reads back exactly what it wrote, through its view.
func TestFuzzMaterializedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 + rng.Intn(7)
		ngroups := 1 + rng.Intn(nprocs)
		views, sizes := randomDisjointViews(rng, nprocs)
		data := make([][]byte, nprocs)
		for r := range data {
			data[r] = make([]byte, sizes[r])
			rng.Read(data[r])
		}
		stripe := storage.Stripe{Count: 4, Size: 613}
		ok := true
		fs := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(nprocs, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			comm := mpi.WorldComm(r)
			f := Open(comm, fs, "mz", stripe, Options{
				NumGroups:               ngroups,
				ForceIntermediate:       true,
				MaterializeIntermediate: true,
				Hints:                   mpiio.Hints{CBBufferSize: 449},
			})
			me := r.WorldRank()
			f.SetView(views[me])
			f.WriteAtAll(0, data[me])
			comm.Barrier()
			got := f.ReadAtAll(0, sizes[me])
			if !bytes.Equal(got, data[me]) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// FuzzPartitionDirect is a native fuzz target over the file-area
// partitioners: the fuzzer picks the generator seed and group count, and the
// invariant checkers from fa_prop_test.go must hold (and nothing may panic)
// for both direct and logical partitioning. `go test` exercises the seed
// corpus below; `go test -fuzz=FuzzPartitionDirect ./internal/core` explores.
func FuzzPartitionDirect(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(2), uint8(3))
	f.Add(int64(42), uint8(8))
	f.Add(int64(-7), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, ng uint8) {
		rng := rand.New(rand.NewSource(seed))
		spans := randomSpans(rng)
		ngroups := 1 + int(ng)%(len(spans)+2)
		if err := checkPartitionDirect(spans, ngroups); err != nil {
			t.Errorf("direct: seed %d ngroups %d: %v", seed, ngroups, err)
		}
		if err := checkPartitionLogical(spans, ngroups); err != nil {
			t.Errorf("logical: seed %d ngroups %d: %v", seed, ngroups, err)
		}
	})
}

// TestFuzzMultiCallSameView checks repeated collective writes through one
// view (plan caching path) against independent writes, at random offsets.
func TestFuzzMultiCallSameView(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 + rng.Intn(5)
		ngroups := 1 + rng.Intn(nprocs)
		per := int64(rng.Intn(2000) + 500)
		calls := 2 + rng.Intn(3)
		data := make([][]byte, nprocs)
		for r := range data {
			data[r] = make([]byte, per)
			rng.Read(data[r])
		}
		stripe := storage.Stripe{Count: 2, Size: 331}
		pcFS := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(nprocs, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			f := Open(mpi.WorldComm(r), pcFS, "mc", stripe, Options{NumGroups: ngroups})
			me := r.WorldRank()
			f.SetView(datatype.View{Disp: int64(me) * per, Filetype: datatype.Contig(per)})
			chunk := per / int64(calls)
			for i := 0; i < calls; i++ {
				lo := int64(i) * chunk
				hi := lo + chunk
				if i == calls-1 {
					hi = per
				}
				f.WriteAtAll(lo, data[me][lo:hi])
			}
		})
		var got []byte
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			got = pcFS.Open(r, "mc", stripe).Contents()
		})
		want := bytes.Join(data, nil)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
