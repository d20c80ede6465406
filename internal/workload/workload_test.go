package workload

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/storage"
)

func testEnv(opts core.Options) Env {
	return Env{
		FS:     lustre.NewFS(lustre.DefaultConfig()),
		Stripe: storage.Stripe{Count: 8, Size: 4096},
		Opts:   opts,
	}
}

func TestGrid(t *testing.T) {
	cases := map[int][2]int{
		1:    {1, 1},
		4:    {2, 2},
		8:    {4, 2},
		12:   {4, 3},
		16:   {4, 4},
		512:  {32, 16},
		1024: {32, 32},
		7:    {7, 1},
	}
	for n, want := range cases {
		nx, ny := Grid(n)
		if nx != want[0] || ny != want[1] {
			t.Errorf("Grid(%d) = %dx%d want %dx%d", n, nx, ny, want[0], want[1])
		}
		if nx*ny != n {
			t.Errorf("Grid(%d) does not cover all procs", n)
		}
	}
}

func TestIORWriteVerify(t *testing.T) {
	env := testEnv(core.Options{NumGroups: 2, Hints: mpiio.Hints{CBBufferSize: 4096}})
	w := IOR{Block: 16384, Transfer: 4096}
	mpi.Run(8, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		res := w.Write(r, env, "ior")
		if res.Elapsed <= 0 || res.Bandwidth() <= 0 {
			t.Errorf("rank %d: bad result %+v", r.WorldRank(), res)
		}
		if res.VirtBytes != 16384*8 {
			t.Errorf("virt bytes = %d", res.VirtBytes)
		}
		mpi.WorldComm(r).Barrier()
		if err := w.Check(r, env, "ior"); err != nil {
			t.Error(err)
		}
	})
}

func TestIORRead(t *testing.T) {
	env := testEnv(core.Options{NumGroups: 2})
	w := IOR{Block: 8192, Transfer: 8192}
	mpi.Run(4, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		w.Write(r, env, "iorr")
		mpi.WorldComm(r).Barrier()
		res := w.Read(r, env, "iorr")
		if res.Elapsed <= 0 {
			t.Error("read took no time")
		}
	})
}

func TestTileIOWriteVerify(t *testing.T) {
	env := testEnv(core.Options{NumGroups: 2, Hints: mpiio.Hints{CBBufferSize: 8192}})
	w := TileIO{TileX: 64, TileY: 16, Elem: 2}
	mpi.Run(8, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		res := w.Write(r, env, "tile")
		if res.Elapsed <= 0 {
			t.Error("no elapsed time")
		}
		mpi.WorldComm(r).Barrier()
		if err := w.Check(r, env, "tile"); err != nil {
			t.Error(err)
		}
	})
}

func TestTileIOViewIsInterleaved(t *testing.T) {
	w := TileIO{TileX: 4, TileY: 2, Elem: 1}
	// 4 procs in a 2x2 grid: row width 8 bytes, two procs interleave rows.
	v0 := w.View(0, 4)
	segs := v0.Map(0, 8)
	if len(segs) != 2 {
		t.Fatalf("tile view segments = %v", segs)
	}
	if segs[0].Off != 0 || segs[1].Off != 8 {
		t.Errorf("tile rows at %v", segs)
	}
	v1 := w.View(1, 4)
	if s := v1.Map(0, 8); s[0].Off != 4 {
		t.Errorf("second tile starts at %d want 4", s[0].Off)
	}
}

func TestTileIORead(t *testing.T) {
	env := testEnv(core.Options{NumGroups: 2})
	w := TileIO{TileX: 32, TileY: 8, Elem: 1}
	mpi.Run(4, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		w.Write(r, env, "tr")
		mpi.WorldComm(r).Barrier()
		if res := w.Read(r, env, "tr"); res.Elapsed <= 0 {
			t.Error("no read time")
		}
	})
}

func TestBTIOCellCoverage(t *testing.T) {
	// The diagonal multi-partition must cover the cube exactly once.
	for _, nprocs := range []int{4, 9, 16} {
		k := K(nprocs)
		seen := make(map[[3]int]int)
		for p := 0; p < nprocs; p++ {
			for _, c := range CellCoords(p, k) {
				seen[c]++
			}
		}
		if len(seen) != k*k*k {
			t.Errorf("nprocs %d: %d distinct cells want %d", nprocs, len(seen), k*k*k)
		}
		for c, n := range seen {
			if n != 1 {
				t.Errorf("nprocs %d: cell %v owned %d times", nprocs, c, n)
			}
		}
	}
}

func TestBTIOViewPartitionsCube(t *testing.T) {
	w := BTIO{N: 8, Elem: 4, Steps: 1}
	const nprocs = 4
	cube := w.N * w.N * w.N * w.Elem
	covered := make([]int, cube)
	for p := 0; p < nprocs; p++ {
		v := w.View(p, nprocs)
		for _, s := range v.Map(0, w.DumpBytes(nprocs)) {
			for b := s.Off; b < s.End(); b++ {
				covered[b]++
			}
		}
	}
	for off, n := range covered {
		if n != 1 {
			t.Fatalf("byte %d covered %d times", off, n)
		}
	}
}

func TestBTIOWriteVerify(t *testing.T) {
	env := testEnv(core.Options{NumGroups: 2, Hints: mpiio.Hints{CBBufferSize: 2048}})
	w := BTIO{N: 8, Elem: 4, Steps: 2}
	fs := env.FS
	const nprocs = 4
	mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		res := w.Write(r, env, "bt")
		if res.Elapsed <= 0 {
			t.Error("no elapsed time")
		}
		if want := w.DumpBytes(nprocs) * nprocs * 2; res.VirtBytes != want {
			t.Errorf("virt bytes = %d want %d", res.VirtBytes, want)
		}
	})
	// Verify both dumps byte-exactly via the views.
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		lf := fs.Open(r, "bt", env.Stripe)
		per := w.DumpBytes(nprocs)
		for p := 0; p < nprocs; p++ {
			v := w.View(p, nprocs)
			for s := 0; s < w.Steps; s++ {
				var pos int64
				for _, seg := range v.Map(int64(s)*per, per) {
					got := storage.Read(r, lf, seg.Off, seg.Len)
					for i, b := range got {
						want := PatternByte(p, int64(s)*per+pos+int64(i))
						if b != want {
							t.Fatalf("proc %d step %d byte %d: got %d want %d", p, s, pos+int64(i), b, want)
						}
					}
					pos += seg.Len
				}
			}
		}
	})
}

func TestBTIOUsesIntermediateViews(t *testing.T) {
	// BT-IO's scattered cells must trigger ParColl's view switching.
	env := testEnv(core.Options{NumGroups: 2})
	w := BTIO{N: 8, Elem: 4, Steps: 1}
	fs := env.FS
	var mode core.Mode
	mpi.Run(4, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := core.Open(comm, fs, "btm", env.Stripe, env.Opts)
		f.SetView(w.View(r.WorldRank(), 4))
		data := make([]byte, w.DumpBytes(4))
		Fill(data, r.WorldRank(), 0)
		f.WriteAtAll(0, data)
		if r.WorldRank() == 0 {
			mode = f.LastPlan().Mode
		}
	})
	if mode != core.ModeIntermediate {
		t.Errorf("BT-IO mode = %v want intermediate", mode)
	}
}

func TestBTIONonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	K(6)
}

func TestFlashCheckpointVerify(t *testing.T) {
	env := testEnv(core.Options{NumGroups: 2, Hints: mpiio.Hints{CBBufferSize: 8192}})
	w := FlashIO{NxB: 4, NyB: 4, NzB: 4, NBlocks: 3, NVars: 4, Elem: 8}
	mpi.Run(4, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		res := w.Write(r, env, "flash")
		if res.Elapsed <= 0 {
			t.Error("no elapsed time")
		}
		if want := w.CheckpointBytes(4); res.VirtBytes != want {
			t.Errorf("virt bytes %d want %d", res.VirtBytes, want)
		}
		mpi.WorldComm(r).Barrier()
		if err := w.Check(r, env, "flash"); err != nil {
			t.Error(err)
		}
	})
}

func TestFlashIndependentVerify(t *testing.T) {
	env := testEnv(core.Options{})
	w := FlashIO{NxB: 4, NyB: 4, NzB: 2, NBlocks: 2, NVars: 3, Elem: 8}
	mpi.Run(2, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		res := w.WriteCheckpointIndependent(r, env, "flashi")
		if res.Elapsed <= 0 {
			t.Error("no elapsed time")
		}
		mpi.WorldComm(r).Barrier()
		if err := w.Check(r, env, "flashi"); err != nil {
			t.Error(err)
		}
	})
}

func TestMeasureSynchronizes(t *testing.T) {
	mpi.Run(4, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		r.Compute(float64(r.WorldRank()) * 1e-3)
		d := measure(comm, func() { r.Compute(1e-3) })
		if d < 1e-3 {
			t.Errorf("measure %g < body time", d)
		}
		if d > 5e-3 {
			t.Errorf("measure %g includes pre-barrier skew", d)
		}
	})
}

func TestMeanBreakdown(t *testing.T) {
	mpi.Run(4, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		bd := mpiio.Breakdown{Sync: float64(r.WorldRank())}
		m := MeanBreakdown(comm, bd)
		if m.Sync != 1.5 {
			t.Errorf("mean sync = %g want 1.5", m.Sync)
		}
	})
}

func TestPatternByteDistinguishesRanks(t *testing.T) {
	if PatternByte(0, 0) == PatternByte(1, 0) {
		t.Error("pattern does not separate ranks")
	}
	if PatternByte(0, 0) == PatternByte(0, 1) {
		t.Error("pattern does not separate offsets")
	}
}

func TestScaledWorkloadReportsVirtualBytes(t *testing.T) {
	cfg := lustre.DefaultConfig()
	cfg.CostScale = 64
	env := Env{FS: lustre.NewFS(cfg), Stripe: storage.Stripe{Count: 4, Size: 1024}, Opts: core.Options{}}
	w := IOR{Block: 4096, Transfer: 4096}
	mpi.Run(2, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		res := w.Write(r, env, "sc")
		if want := int64(4096 * 2 * 64); res.VirtBytes != want {
			t.Errorf("virt bytes %d want %d", res.VirtBytes, want)
		}
	})
}

// TestBTViewMatchesStructComposition cross-validates the hand-built BT-IO
// view against the same layout composed from datatype.Struct of per-cell
// subarrays — two independent constructions of the diagonal multipartition.
func TestBTViewMatchesStructComposition(t *testing.T) {
	w := BTIO{N: 12, Elem: 8, Steps: 1}
	const nprocs = 9
	k := K(nprocs)
	c := w.N / int64(k)
	for rank := 0; rank < nprocs; rank++ {
		var fields []datatype.Field
		for _, cell := range CellCoords(rank, k) {
			sub := datatype.NewSubarray(
				[]int64{w.N, w.N, w.N},
				[]int64{c, c, c},
				[]int64{int64(cell[2]) * c, int64(cell[1]) * c, int64(cell[0]) * c},
				w.Elem,
			)
			fields = append(fields, datatype.Field{Off: 0, T: sub})
		}
		st := datatype.NewStruct(fields)
		got := w.View(rank, nprocs).Filetype.Segments()
		want := st.Segments()
		if len(got) != len(want) {
			t.Fatalf("rank %d: %d segments vs struct's %d", rank, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rank %d segment %d: %v vs %v", rank, i, got[i], want[i])
			}
		}
	}
}

func TestBTIOReadBack(t *testing.T) {
	env := testEnv(core.Options{NumGroups: 4, MaterializeIntermediate: true})
	w := BTIO{N: 8, Elem: 4, Steps: 2}
	mpi.Run(16, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		w.Write(r, env, "btr")
		mpi.WorldComm(r).Barrier()
		res := w.Read(r, env, "btr")
		if res.Elapsed <= 0 {
			t.Error("no read time")
		}
	})
}

func TestFlashAttrsInHeader(t *testing.T) {
	env := testEnv(core.Options{})
	w := FlashIO{NxB: 2, NyB: 2, NzB: 2, NBlocks: 2, NVars: 2, Elem: 8}
	mpi.Run(2, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		w.Write(r, env, "fa")
		mpi.WorldComm(r).Barrier()
		if err := w.Check(r, env, "fa"); err != nil {
			t.Error(err)
		}
	})
}
