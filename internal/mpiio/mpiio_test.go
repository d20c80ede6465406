package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/storage"
)

func testStripe() storage.Stripe { return storage.Stripe{Count: 4, Size: 4096} }

// pattern fills a buffer with rank-and-offset dependent bytes.
func pattern(rank int, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rank*37 + i*11 + 5)
	}
	return b
}

func runIO(t *testing.T, nprocs int, seed int64, body func(r *mpi.Rank, fs *lustre.FS)) *lustre.FS {
	t.Helper()
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(nprocs, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
		body(r, fs)
	})
	return fs
}

func TestCollectiveWriteContiguous(t *testing.T) {
	const n = 8
	const per = 10000
	fs := runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "cw", testStripe(), Hints{CBBufferSize: 8192})
		// Each rank writes a contiguous slab at rank*per.
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * per, Filetype: datatype.Contig(per)})
		f.WriteAtAll(0, pattern(r.WorldRank(), per))
	})
	verify := lustre.NewFS(lustre.DefaultConfig())
	_ = verify
	// Verify the file contents.
	checkContents(t, fs, "cw", func(off int64) byte {
		rank := int(off / per)
		i := int(off % per)
		return byte(rank*37 + i*11 + 5)
	}, n*per)
}

func checkContents(t *testing.T, fs *lustre.FS, name string, want func(off int64) byte, size int64) {
	t.Helper()
	var got []byte
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		f := fs.Open(r, name, testStripe())
		got = f.Contents()
	})
	if int64(len(got)) != size {
		t.Fatalf("file size %d want %d", len(got), size)
	}
	for off := int64(0); off < size; off++ {
		if got[off] != want(off) {
			t.Fatalf("byte %d = %d want %d", off, got[off], want(off))
		}
	}
}

func TestCollectiveWriteInterleaved(t *testing.T) {
	// Interleaved pattern: rank r owns every n-th block of 64 bytes —
	// classic strided collective I/O.
	const n = 6
	const blocks = 40
	const bs = 64
	fs := runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "il", testStripe(), Hints{CBBufferSize: 1024})
		ft := datatype.NewVector(blocks, bs, n*bs)
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * bs, Filetype: ft})
		f.WriteAtAll(0, pattern(r.WorldRank(), blocks*bs))
	})
	checkContents(t, fs, "il", func(off int64) byte {
		block := off / bs
		rank := int(block % n)
		i := int((block/n)*bs + off%bs)
		return byte(rank*37 + i*11 + 5)
	}, n*blocks*bs)
}

func TestCollectiveReadMatchesWrite(t *testing.T) {
	const n = 5
	const per = 7777
	runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "rr", testStripe(), Hints{CBBufferSize: 4000})
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * per, Filetype: datatype.Contig(per)})
		want := pattern(r.WorldRank(), per)
		f.WriteAtAll(0, want)
		comm.Barrier()
		got := f.ReadAtAll(0, per)
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d read-back mismatch", r.WorldRank())
		}
	})
}

func TestCollectiveReadStrided(t *testing.T) {
	const n = 4
	const blocks = 16
	const bs = 128
	runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "rs", testStripe(), Hints{CBBufferSize: 1 << 20})
		ft := datatype.NewVector(blocks, bs, n*bs)
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * bs, Filetype: ft})
		want := pattern(r.WorldRank(), blocks*bs)
		f.WriteAtAll(0, want)
		comm.Barrier()
		got := f.ReadAtAll(0, blocks*bs)
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d strided read-back mismatch", r.WorldRank())
		}
	})
}

func TestIndependentWrite(t *testing.T) {
	fs := runIO(t, 2, 1, func(r *mpi.Rank, fs *lustre.FS) {
		f := Open(mpi.WorldComm(r), fs, "ind", testStripe(), Hints{})
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * 100, Filetype: datatype.Contig(100)})
		f.WriteAt(0, pattern(r.WorldRank(), 100))
	})
	checkContents(t, fs, "ind", func(off int64) byte {
		rank := int(off / 100)
		i := int(off % 100)
		return byte(rank*37 + i*11 + 5)
	}, 200)
}

func TestIndependentReadThroughView(t *testing.T) {
	runIO(t, 1, 1, func(r *mpi.Rank, fs *lustre.FS) {
		f := Open(mpi.WorldComm(r), fs, "iv", testStripe(), Hints{})
		ft := datatype.NewVector(4, 10, 20)
		f.SetView(datatype.View{Disp: 0, Filetype: ft})
		want := pattern(0, 40)
		f.WriteAt(0, want)
		got := f.ReadAt(0, 40)
		if !bytes.Equal(got, want) {
			t.Error("independent view read-back mismatch")
		}
	})
}

func TestDefaultAggregatorsOnePerNode(t *testing.T) {
	// 8 ranks, 2 per node => 4 nodes => 4 default aggregators.
	runIO(t, 8, 1, func(r *mpi.Rank, fs *lustre.FS) {
		f := Open(mpi.WorldComm(r), fs, "agg", testStripe(), Hints{})
		aggs := f.Aggregators()
		want := []int{0, 2, 4, 6}
		if len(aggs) != len(want) {
			t.Fatalf("aggs = %v want %v", aggs, want)
		}
		for i := range want {
			if aggs[i] != want[i] {
				t.Fatalf("aggs = %v want %v", aggs, want)
			}
		}
	})
}

func TestCBNodesHint(t *testing.T) {
	runIO(t, 8, 1, func(r *mpi.Rank, fs *lustre.FS) {
		f := Open(mpi.WorldComm(r), fs, "cbn", testStripe(), Hints{CBNodes: 2})
		if got := len(f.Aggregators()); got != 2 {
			t.Errorf("aggregators = %d want 2", got)
		}
	})
}

func TestAggregatorListHint(t *testing.T) {
	runIO(t, 8, 1, func(r *mpi.Rank, fs *lustre.FS) {
		f := Open(mpi.WorldComm(r), fs, "al", testStripe(), Hints{AggregatorList: []int{3, 5}})
		aggs := f.Aggregators()
		if len(aggs) != 2 || aggs[0] != 3 || aggs[1] != 5 {
			t.Errorf("aggregators = %v want [3 5]", aggs)
		}
	})
}

// A Hints literal can repeat a rank: the repeat counts once, instead of two file domains fighting over one
// aggregator's request slot and the call dying mid-round.
func TestRepeatedAggregatorCountsOnce(t *testing.T) {
	const n, per = 4, 3000
	fs := runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		f := Open(mpi.WorldComm(r), fs, "rep", testStripe(),
			Hints{CBBufferSize: 1024, AggregatorList: []int{0, 0, 2}})
		if aggs := f.Aggregators(); len(aggs) != 2 || aggs[0] != 0 || aggs[1] != 2 {
			t.Errorf("aggregators = %v want [0 2]", aggs)
		}
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * per, Filetype: datatype.Contig(per)})
		want := pattern(r.WorldRank(), per)
		f.WriteAtAll(0, want)
		if got := f.ReadAtAll(0, per); !bytes.Equal(got, want) {
			t.Errorf("rank %d read back wrong bytes", r.WorldRank())
		}
	})
	checkContents(t, fs, "rep", func(off int64) byte {
		return byte(int(off/per)*37 + int(off%per)*11 + 5)
	}, n*per)
}

func TestCollectiveWriteSingleAggregator(t *testing.T) {
	const n = 4
	const per = 5000
	fs := runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "single", testStripe(), Hints{CBNodes: 1, CBBufferSize: 3000})
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * per, Filetype: datatype.Contig(per)})
		f.WriteAtAll(0, pattern(r.WorldRank(), per))
	})
	checkContents(t, fs, "single", func(off int64) byte {
		rank := int(off / per)
		i := int(off % per)
		return byte(rank*37 + i*11 + 5)
	}, n*per)
}

func TestBreakdownCategories(t *testing.T) {
	runIO(t, 8, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "bd", testStripe(), Hints{CBBufferSize: 2048})
		const per = 8192
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * per, Filetype: datatype.Contig(per)})
		f.WriteAtAll(0, pattern(r.WorldRank(), per))
		bd := f.Breakdown()
		if bd.Sync <= 0 {
			t.Errorf("rank %d: no sync time", r.WorldRank())
		}
		if r.WorldRank() == 0 && bd.IO <= 0 { // rank 0 is an aggregator
			t.Error("aggregator recorded no io time")
		}
		if bd.Total() <= 0 {
			t.Error("empty breakdown")
		}
	})
}

func TestEmptyCollectiveCallsAreSafe(t *testing.T) {
	runIO(t, 4, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "empty", testStripe(), Hints{})
		f.WriteAtAll(0, nil) // nobody writes anything
		got := f.ReadAtAll(0, 0)
		if len(got) != 0 {
			t.Errorf("read %d bytes from empty call", len(got))
		}
	})
}

func TestPartialParticipation(t *testing.T) {
	// Only half the ranks contribute data; the others pass empty buffers
	// but still participate in the collective.
	const n = 6
	const per = 3000
	fs := runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "part", testStripe(), Hints{CBBufferSize: 2048})
		if r.WorldRank()%2 == 0 {
			f.SetView(datatype.View{Disp: int64(r.WorldRank()/2) * per, Filetype: datatype.Contig(per)})
			f.WriteAtAll(0, pattern(r.WorldRank(), per))
		} else {
			f.WriteAtAll(0, nil)
		}
	})
	checkContents(t, fs, "part", func(off int64) byte {
		rank := int(off/per) * 2
		i := int(off % per)
		return byte(rank*37 + i*11 + 5)
	}, 3*per)
}

// Property: random disjoint strided layouts written collectively match an
// independently-written reference byte for byte.
func TestCollectiveMatchesIndependentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(7) + 2
		bs := int64(rng.Intn(200) + 8)
		blocks := int64(rng.Intn(20) + 1)
		cb := int64(rng.Intn(4000) + 256)
		data := make([][]byte, n)
		for i := range data {
			data[i] = make([]byte, bs*blocks)
			rng.Read(data[i])
		}
		mkView := func(rank int) datatype.View {
			return datatype.View{
				Disp:     int64(rank) * bs,
				Filetype: datatype.NewVector(blocks, bs, int64(n)*bs),
			}
		}
		// Collective run.
		collFS := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(n, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			f := Open(mpi.WorldComm(r), fs2Name(collFS), "x", testStripe(), Hints{CBBufferSize: cb})
			f.SetView(mkView(r.WorldRank()))
			f.WriteAtAll(0, data[r.WorldRank()])
		})
		// Independent reference run.
		refFS := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(n, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			f := Open(mpi.WorldComm(r), refFS, "x", testStripe(), Hints{})
			f.SetView(mkView(r.WorldRank()))
			f.WriteAt(0, data[r.WorldRank()])
		})
		var a, b []byte
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			a = collFS.Open(r, "x", testStripe()).Contents()
			b = refFS.Open(r, "x", testStripe()).Contents()
		})
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// fs2Name is an identity helper keeping the property test readable.
func fs2Name(fs *lustre.FS) *lustre.FS { return fs }

func TestMultipleCollectiveCallsOnOneFile(t *testing.T) {
	const n = 4
	const per = 2000
	fs := runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "multi", testStripe(), Hints{CBBufferSize: 1024})
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * per, Filetype: datatype.Contig(per)})
		half := pattern(r.WorldRank(), per)
		f.WriteAtAll(0, half[:per/2])
		f.WriteAtAll(per/2, half[per/2:])
	})
	checkContents(t, fs, "multi", func(off int64) byte {
		rank := int(off / per)
		i := int(off % per)
		return byte(rank*37 + i*11 + 5)
	}, n*per)
}

func TestCostScaledWriteStillCorrect(t *testing.T) {
	cfg := lustre.DefaultConfig()
	cfg.CostScale = 1024
	fs := lustre.NewFS(cfg)
	const n, per = 4, 1000
	mpi.Run(n, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		f := Open(mpi.WorldComm(r), fs, "sc", testStripe(), Hints{CBBufferSize: 512})
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * per, Filetype: datatype.Contig(per)})
		f.WriteAtAll(0, pattern(r.WorldRank(), per))
		if bd := f.Breakdown(); bd.Total() <= 0 {
			t.Error("no time recorded under cost scaling")
		}
	})
	var got []byte
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		got = fs.Open(r, "sc", testStripe()).Contents()
	})
	for off := range got {
		rank := off / per
		i := off % per
		if got[off] != byte(rank*37+i*11+5) {
			t.Fatalf("scaled write corrupted byte %d", off)
		}
	}
}

func TestPairwiseAlltoallvVariant(t *testing.T) {
	const n, per = 4, 3000
	fs := runIO(t, n, 1, func(r *mpi.Rank, fs *lustre.FS) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "pw", testStripe(), Hints{
			CBBufferSize:  2048,
			AlltoallvAlgo: mpi.AlltoallvPairwise,
		})
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * per, Filetype: datatype.Contig(per)})
		f.WriteAtAll(0, pattern(r.WorldRank(), per))
	})
	checkContents(t, fs, "pw", func(off int64) byte {
		rank := int(off / per)
		i := int(off % per)
		return byte(rank*37 + i*11 + 5)
	}, n*per)
}

func TestSyncDominatesAtScaleWithTinyIO(t *testing.T) {
	// With many procs and tiny per-proc data, synchronization must be the
	// dominant cost — the premise of Figure 1.
	var bd Breakdown
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(64, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "wall", testStripe(), Hints{})
		f.SetView(datatype.View{Disp: int64(r.WorldRank()) * 64, Filetype: datatype.Contig(64)})
		f.WriteAtAll(0, pattern(r.WorldRank(), 64))
		if r.WorldRank() == 1 { // non-aggregator
			bd = f.Breakdown()
		}
	})
	if bd.Sync < bd.IO {
		t.Errorf("tiny-io sync %g < io %g; collective wall premise broken", bd.Sync, bd.IO)
	}
}

func TestStringer(t *testing.T) {
	runIO(t, 2, 1, func(r *mpi.Rank, fs *lustre.FS) {
		f := Open(mpi.WorldComm(r), fs, "str", testStripe(), Hints{})
		if s := f.String(); s == "" {
			t.Error("empty String()")
		}
		_ = fmt.Sprint(f)
	})
}

func TestSievedReadMatchesPlain(t *testing.T) {
	runIO(t, 1, 1, func(r *mpi.Rank, fs *lustre.FS) {
		f := Open(mpi.WorldComm(r), fs, "sv", testStripe(), Hints{})
		ft := datatype.NewVector(32, 16, 64) // sparse strided layout
		f.SetView(datatype.View{Disp: 0, Filetype: ft})
		want := pattern(3, 32*16)
		f.WriteAt(0, want)
		plain := f.ReadAt(0, 32*16)
		sieved := f.ReadAtSieved(0, 32*16)
		if !bytes.Equal(plain, want) || !bytes.Equal(sieved, want) {
			t.Error("sieved read mismatch")
		}
	})
}

func TestSievedReadFasterOnStrided(t *testing.T) {
	elapsed := func(sieved bool) float64 {
		var d float64
		fs := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			f := Open(mpi.WorldComm(r), fs, "sp", storage.Stripe{Count: 4, Size: 1 << 20}, Hints{})
			ft := datatype.NewVector(64, 256, 512) // 50% density
			f.SetView(datatype.View{Disp: 0, Filetype: ft})
			f.WriteAt(0, pattern(1, 64*256))
			t0 := r.Now()
			if sieved {
				f.ReadAtSieved(0, 64*256)
			} else {
				f.ReadAt(0, 64*256)
			}
			d = r.Now() - t0
		})
		return d
	}
	plain, sieved := elapsed(false), elapsed(true)
	if sieved >= plain {
		t.Errorf("sieving not faster on strided reads: plain %g vs sieved %g", plain, sieved)
	}
}

func TestSievedWriteCorrect(t *testing.T) {
	fs := runIO(t, 1, 1, func(r *mpi.Rank, fs *lustre.FS) {
		f := Open(mpi.WorldComm(r), fs, "sw", testStripe(), Hints{})
		// Pre-fill the holes so read-modify-write must preserve them.
		storage.Write(r, f.Storage(), 0, bytes.Repeat([]byte{0xEE}, 2048))
		ft := datatype.NewVector(16, 32, 128)
		f.SetView(datatype.View{Disp: 0, Filetype: ft})
		f.WriteAtSieved(0, pattern(2, 16*32))
	})
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		got := storage.Read(r, fs.Open(r, "sw", testStripe()), 0, 2048)
		want := pattern(2, 16*32)
		for i := 0; i < 2048; i++ {
			blk, off := i/128, i%128
			if blk < 16 && off < 32 {
				if got[i] != want[blk*32+off] {
					t.Fatalf("data byte %d wrong", i)
				}
			} else if got[i] != 0xEE {
				t.Fatalf("hole byte %d clobbered: %x", i, got[i])
			}
		}
	})
}

func TestSieveWindowsDensityCutoff(t *testing.T) {
	// Widely separated segments must not be packed into one window.
	segs := []datatype.Segment{{Off: 0, Len: 10}, {Off: 1 << 20, Len: 10}}
	wins := sieveWindows(segs, 4<<20)
	if len(wins) != 2 {
		t.Errorf("sparse segments packed together: %d windows", len(wins))
	}
	// Dense segments pack.
	dense := []datatype.Segment{{Off: 0, Len: 100}, {Off: 150, Len: 100}, {Off: 300, Len: 100}}
	if wins := sieveWindows(dense, 4096); len(wins) != 1 {
		t.Errorf("dense segments split: %d windows", len(wins))
	}
}

// Property: file domains tile [minSt, maxEnd) exactly — ordered, disjoint,
// and covering every byte once — for any range, aggregator count, and
// stripe alignment.
func TestComputeFDsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		minSt := rng.Int63n(1 << 30)
		maxEnd := minSt + rng.Int63n(1<<30) + 1
		nag := rng.Intn(64) + 1
		stripe := int64(0)
		if rng.Intn(2) == 0 {
			stripe = 1 << (8 + rng.Intn(14))
		}
		lo, hi := computeFDs(minSt, maxEnd, nag, stripe)
		if len(lo) != nag || len(hi) != nag {
			return false
		}
		cursor := minSt
		for a := 0; a < nag; a++ {
			if hi[a] < lo[a] {
				return false
			}
			if lo[a] > hi[a] { // impossible, defensive
				return false
			}
			if hi[a] > lo[a] { // non-empty: must start exactly at cursor
				if lo[a] != cursor {
					return false
				}
				cursor = hi[a]
			}
			if stripe > 0 && hi[a] > lo[a] && a+1 < nag && hi[a] < maxEnd && hi[a]%stripe != 0 {
				return false // interior boundary must be stripe-aligned
			}
		}
		return cursor == maxEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
