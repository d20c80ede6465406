package core

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
	"repro/internal/mpiio"
	"repro/internal/storage"
)

func testStripe() storage.Stripe { return storage.Stripe{Count: 4, Size: 4096} }

func pattern(rank, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rank*41 + i*13 + 3)
	}
	return b
}

// --- Aggregator distribution: the paper's Figure 5 ---

// ident is the world map of a job-free world communicator.
func ident(i int) int { return i }

// serialRows is the footprint table of n ranks writing consecutive slabs
// of per bytes each (pattern (a)).
func serialRows(n int, per int64) [][]int64 {
	rows := make([][]int64, n)
	for r := range rows {
		rows[r] = []int64{int64(r) * per, int64(r+1) * per, per, per}
	}
	return rows
}

func TestAggregatorDistributionPaperFigure5Block(t *testing.T) {
	// Block mapping: N0(P0,P1) N1(P2,P3) N2(P4,P5) N3(P6,P7); aggregator
	// nodes N0..N3 (the default one per node); groups {P0..P3}, {P4..P7}.
	nodeOf := func(r int) int { return r / 2 }
	got := Partition(serialRows(8, 100), ident, ident, nodeOf, Options{NumGroups: 2})
	if fmt.Sprint(got.Groups) != "[[0 1 2 3] [4 5 6 7]]" {
		t.Fatalf("groups = %v", got.Groups)
	}
	want := [][]int{{0, 2}, {4, 6}} // SG1: N0(P0), N1(P2); SG2: N2(P4), N3(P6)
	if fmt.Sprint(got.Aggregators) != fmt.Sprint(want) {
		t.Errorf("block distribution = %v want %v", got.Aggregators, want)
	}
}

func TestAggregatorDistributionPaperFigure5Cyclic(t *testing.T) {
	// Cyclic mapping: N0(P0,P4) N1(P1,P5) N2(P2,P6) N3(P3,P7); three
	// aggregator nodes N0, N2, N3, named by an explicit aggregator list.
	nodeOf := func(r int) int { return r % 4 }
	opts := Options{NumGroups: 2, Hints: mpiio.Hints{AggregatorList: []int{0, 2, 3}}}
	got := Partition(serialRows(8, 100), ident, ident, nodeOf, opts)
	want := [][]int{{0, 3}, {6}} // SG1: N0(P0), N3(P3); SG2: N2(P6)
	if fmt.Sprint(got.Aggregators) != fmt.Sprint(want) {
		t.Errorf("cyclic distribution = %v want %v", got.Aggregators, want)
	}
}

func TestAggregatorFallbackRequirementA(t *testing.T) {
	// Group 1 has no member on an aggregator node; it must still get one.
	nodeOf := func(r int) int { return r }
	groups := [][]int{{0, 1}, {2, 3}}
	got := DistributeAggregators(groups, nodeOf, []int{0, 1})
	if len(got[1]) != 1 || got[1][0] != 2 {
		t.Errorf("fallback aggregator = %v want [2]", got[1])
	}
}

// Property: requirements (a), (b), (c) hold for random topologies.
func TestAggregatorDistributionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := rng.Intn(30) + 2
		pes := rng.Intn(3) + 1
		ngroups := rng.Intn(nprocs) + 1
		nodeOf := func(r int) int { return r / pes }
		// Random contiguous groups.
		groups := make([][]int, 0, ngroups)
		ranks := make([]int, nprocs)
		for i := range ranks {
			ranks[i] = i
		}
		per := (nprocs + ngroups - 1) / ngroups
		for len(ranks) > 0 {
			k := per
			if k > len(ranks) {
				k = len(ranks)
			}
			groups = append(groups, ranks[:k])
			ranks = ranks[k:]
		}
		// Random aggregator node subset.
		numNodes := (nprocs + pes - 1) / pes
		var aggNodes []int
		for n := 0; n < numNodes; n++ {
			if rng.Intn(2) == 0 {
				aggNodes = append(aggNodes, n)
			}
		}
		got := DistributeAggregators(groups, nodeOf, aggNodes)
		// (a): every group has at least one aggregator.
		for g := range groups {
			if len(got[g]) == 0 {
				return false
			}
		}
		// (b): no node hosts aggregators of two different groups, unless a
		// requirement-(a) fallback had no conflict-free member to draft.
		owner := make(map[int]int)
		for g, aggs := range got {
			for _, a := range aggs {
				n := nodeOf(a)
				if o, ok := owner[n]; ok && o != g {
					// Tolerated only when every member node of group g was
					// already claimed by other groups.
					for _, m := range groups[g] {
						if _, claimed := owner[nodeOf(m)]; !claimed {
							return false
						}
					}
					continue
				}
				owner[n] = g
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- File area partitioning ---

func mkSpan(rank int, st, end int64) span {
	return span{rank: rank, st: st, end: end, size: end - st, active: true}
}

func TestPartitionDirectSerial(t *testing.T) {
	// Pattern (a): serial segments; any group count up to nprocs works.
	spans := []span{mkSpan(0, 0, 100), mkSpan(1, 100, 200), mkSpan(2, 200, 300), mkSpan(3, 300, 400)}
	groups, ok := partitionDirect(spans, 2)
	if !ok {
		t.Fatal("serial pattern must partition directly")
	}
	if fmt.Sprint(groups) != "[[0 1] [2 3]]" {
		t.Errorf("groups = %v", groups)
	}
	if _, ok := partitionDirect(spans, 4); !ok {
		t.Error("serial pattern must support nprocs groups")
	}
}

func TestPartitionDirectTiles(t *testing.T) {
	// Pattern (b): two "tile rows" of two interleaved procs each. Procs 0,1
	// interleave in [0,200); procs 2,3 interleave in [200,400).
	spans := []span{
		mkSpan(0, 0, 190), mkSpan(1, 10, 200),
		mkSpan(2, 200, 390), mkSpan(3, 210, 400),
	}
	groups, ok := partitionDirect(spans, 2)
	if !ok {
		t.Fatal("tile pattern with row boundary must partition into 2")
	}
	if fmt.Sprint(groups) != "[[0 1] [2 3]]" {
		t.Errorf("groups = %v", groups)
	}
	// 4 groups would need cuts inside the interleaved rows: impossible.
	if _, ok := partitionDirect(spans, 4); ok {
		t.Error("over-partitioning interleaved tiles must fail (pattern (c))")
	}
}

func TestPartitionDirectScatteredFails(t *testing.T) {
	// Pattern (c): every proc spans nearly the whole file.
	spans := []span{mkSpan(0, 0, 400), mkSpan(1, 10, 390), mkSpan(2, 20, 380)}
	if _, ok := partitionDirect(spans, 2); ok {
		t.Error("scattered pattern must not partition directly")
	}
}

func TestPartitionDirectBalancesBytes(t *testing.T) {
	// Sizes 10,10,10,300: with 2 groups the cut should isolate the jumbo
	// span rather than split 2/2.
	spans := []span{mkSpan(0, 0, 10), mkSpan(1, 10, 20), mkSpan(2, 20, 30), mkSpan(3, 30, 330)}
	groups, ok := partitionDirect(spans, 2)
	if !ok {
		t.Fatal("partition failed")
	}
	if fmt.Sprint(groups) != "[[0 1 2] [3]]" {
		t.Errorf("groups = %v (bytes not balanced)", groups)
	}
}

func TestPartitionLogical(t *testing.T) {
	spans := []span{mkSpan(0, 0, 400), mkSpan(1, 10, 390), mkSpan(2, 5, 395), mkSpan(3, 20, 380)}
	groups, prefix := partitionLogical(spans, 2)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	// Order by st: 0 (st 0), 2 (st 5), 1 (st 10), 3 (st 20).
	if prefix[0] != 0 || prefix[2] != 400 || prefix[1] != 790 || prefix[3] != 1170 {
		t.Errorf("prefixes = %v", prefix)
	}
	if fmt.Sprint(groups) != "[[0 2] [1 3]]" {
		t.Errorf("groups = %v", groups)
	}
}

func TestPartitionLogicalInactive(t *testing.T) {
	spans := []span{mkSpan(0, 0, 100), {rank: 1}, mkSpan(2, 100, 200)}
	groups, prefix := partitionLogical(spans, 2)
	if len(prefix) != 2 {
		t.Errorf("prefix has inactive entries: %v", prefix)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 3 {
		t.Errorf("inactive rank lost: groups %v", groups)
	}
}

// scatteredRows is the footprint table of n ranks whose spans all overlap
// (pattern (c)); extent gives each rank's filetype extent.
func scatteredRows(n int, extent func(r int) int64) [][]int64 {
	rows := make([][]int64, n)
	for r := range rows {
		rows[r] = []int64{int64(r) * 10, 1000 + int64(r)*10, 100, extent(r)}
	}
	return rows
}

// TestPartitionModes drives every branch of Partition's mode decision on
// hand-built footprint tables, with no simulation.
func TestPartitionModes(t *testing.T) {
	uniform := func(int) int64 { return 2000 }
	skewed := func(r int) int64 { return 2000 + int64(r) }
	inactive := make([][]int64, 8)
	for r := range inactive {
		inactive[r] = []int64{-1, -1, 0, 0}
	}
	cases := []struct {
		name   string
		rows   [][]int64
		opts   Options
		mode   Mode
		groups int
	}{
		{"one group", serialRows(8, 100), Options{NumGroups: 1}, ModeSingle, 1},
		{"zero groups", serialRows(8, 100), Options{}, ModeSingle, 1},
		{"all inactive", inactive, Options{NumGroups: 4}, ModeSingle, 1},
		{"direct", serialRows(8, 100), Options{NumGroups: 4}, ModeDirect, 4},
		{"intermediate", scatteredRows(8, uniform), Options{NumGroups: 2}, ModeIntermediate, 2},
		{"forced intermediate", serialRows(8, 100), Options{NumGroups: 2, ForceIntermediate: true}, ModeIntermediate, 2},
		{"intermediate disabled", scatteredRows(8, uniform), Options{NumGroups: 2, DisableIntermediate: true}, ModeSingle, 1},
		{"auto groups P/8", serialRows(32, 100), Options{AutoGroups: true}, ModeDirect, 4},
		{"auto groups at least 1", serialRows(4, 100), Options{AutoGroups: true}, ModeSingle, 1},
		{"groups at most P", serialRows(8, 100), Options{NumGroups: 20}, ModeDirect, 8},
		{"non-uniform extents", scatteredRows(8, skewed), Options{NumGroups: 2}, ModeSingle, 1},
		{"non-uniform extents forced", scatteredRows(8, skewed), Options{NumGroups: 2, ForceIntermediate: true}, ModeSingle, 1},
	}
	nodeOf := func(r int) int { return r / 2 }
	for _, c := range cases {
		plan := Partition(c.rows, ident, ident, nodeOf, c.opts)
		if plan.Mode != c.mode || plan.NumGroups != c.groups {
			t.Errorf("%s: mode %v with %d groups, want %v with %d", c.name, plan.Mode, plan.NumGroups, c.mode, c.groups)
		}
		if err := checkPlan(plan, len(c.rows), ident); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	// Materialized: ranks lie at their start-ordered prefix sums, and one
	// instance of the intermediate file holds every rank's bytes.
	plan := Partition(scatteredRows(8, uniform), ident, ident, nodeOf, Options{NumGroups: 2, MaterializeIntermediate: true})
	if plan.total != 800 || len(plan.prefix) != 8 || plan.prefix[3] != 300 {
		t.Errorf("materialized: total %d, prefix %v; want 800 and rank r at 100r", plan.total, plan.prefix)
	}
}

// --- Intermediate (compact) view ---

func TestCompactView(t *testing.T) {
	cv := newCompactView([][]datatype.Segment{
		{{Off: 100, Len: 10}, {Off: 200, Len: 20}},
		{{Off: 110, Len: 5}},
	}, 1000)
	// Union: [100,115) (coalesced 10+5), [200,220). Logical size 35.
	if cv.size != 35 {
		t.Fatalf("size = %d want 35", cv.size)
	}
	// Logical [5, 30) = physical [105,115) + [200,215).
	got := cv.Phys(5, 25)
	want := []datatype.Segment{{Off: 105, Len: 10}, {Off: 200, Len: 15}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Phys = %v want %v", got, want)
	}
	// Member 0's logical segments: [0,10) and [15,35).
	ls := cv.logicalSegs([]datatype.Segment{{Off: 100, Len: 10}, {Off: 200, Len: 20}})
	wantLS := []datatype.Segment{{Off: 0, Len: 10}, {Off: 15, Len: 20}}
	if fmt.Sprint(ls) != fmt.Sprint(wantLS) {
		t.Errorf("logicalSegs = %v want %v", ls, wantLS)
	}
}

func TestCompactViewTiling(t *testing.T) {
	cv := newCompactView([][]datatype.Segment{{{Off: 10, Len: 5}}}, 100)
	// Instance 1's bytes live at physical 110..114, logical 5..9.
	got := cv.Phys(5, 5)
	want := []datatype.Segment{{Off: 110, Len: 5}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tiled Phys = %v want %v", got, want)
	}
	// Straddling instances.
	got = cv.Phys(3, 4)
	want = []datatype.Segment{{Off: 13, Len: 2}, {Off: 110, Len: 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("straddle Phys = %v want %v", got, want)
	}
}

// Property: compact-view translation is measure-preserving and lands inside
// the union segments (modulo instance tiling).
func TestCompactViewProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nm := rng.Intn(5) + 1
		lists := make([][]datatype.Segment, nm)
		off := int64(0)
		for m := range lists {
			nseg := rng.Intn(4) + 1
			for s := 0; s < nseg; s++ {
				off += rng.Int63n(50)
				l := rng.Int63n(40) + 1
				lists[m] = append(lists[m], datatype.Segment{Off: off, Len: l})
				off += l
			}
		}
		cv := newCompactView(lists, off+rng.Int63n(100))
		total := cv.size * 3 // three instances
		reqOff := rng.Int63n(total)
		reqLen := rng.Int63n(total-reqOff) + 1
		var n int64
		for _, s := range cv.Phys(reqOff, reqLen) {
			if s.Len <= 0 {
				return false
			}
			n += s.Len
		}
		if n != reqLen {
			return false
		}
		// Round trip: every member's logical segments map back to their
		// physical segments.
		for _, l := range lists {
			logical := cv.logicalSegs(l)
			var back []datatype.Segment
			for _, s := range logical {
				back = append(back, cv.Phys(s.Off, s.Len)...)
			}
			if fmt.Sprint(datatype.Coalesce(back)) != fmt.Sprint(datatype.Coalesce(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- End-to-end ParColl correctness ---

// serialWrite runs a ParColl collective write where each rank owns a
// contiguous slab, then returns the file contents.
func serialWrite(t *testing.T, nprocs, ngroups, per int, opts Options) []byte {
	t.Helper()
	fs := lustre.NewFS(lustre.DefaultConfig())
	opts.NumGroups = ngroups
	var gotPlan Plan
	mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "f", testStripe(), opts)
		f.SetView(datatype.View{Disp: int64(r.WorldRank() * per), Filetype: datatype.Contig(int64(per))})
		f.WriteAtAll(0, pattern(r.WorldRank(), per))
		if r.WorldRank() == 0 {
			gotPlan = f.LastPlan()
		}
	})
	t.Logf("plan: mode=%v groups=%d", gotPlan.Mode, gotPlan.NumGroups)
	var data []byte
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		data = fs.Open(r, "f", testStripe()).Contents()
	})
	return data
}

func TestParCollSerialMatchesReference(t *testing.T) {
	const nprocs, per = 8, 3000
	want := serialWrite(t, nprocs, 1, per, Options{})
	for _, g := range []int{2, 4, 8} {
		got := serialWrite(t, nprocs, g, per, Options{})
		if !bytes.Equal(got, want) {
			t.Errorf("ParColl-%d file differs from baseline", g)
		}
	}
}

func TestParCollModeDetection(t *testing.T) {
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(4, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)

		// Serial pattern -> direct.
		f := Open(comm, fs, "m1", testStripe(), Options{NumGroups: 2})
		f.SetView(datatype.View{Disp: int64(r.WorldRank() * 1000), Filetype: datatype.Contig(1000)})
		f.WriteAtAll(0, pattern(r.WorldRank(), 1000))
		if f.LastPlan().Mode != ModeDirect {
			t.Errorf("serial pattern mode = %v want direct", f.LastPlan().Mode)
		}

		// Scattered pattern -> intermediate.
		g := Open(comm, fs, "m2", testStripe(), Options{NumGroups: 2})
		ft := datatype.NewVector(4, 100, 1600) // 4 blocks spread over the file
		g.SetView(datatype.View{Disp: int64(r.WorldRank() * 100), Filetype: ft})
		g.WriteAtAll(0, pattern(r.WorldRank(), 400))
		if g.LastPlan().Mode != ModeIntermediate {
			t.Errorf("scattered pattern mode = %v want intermediate", g.LastPlan().Mode)
		}

		// NumGroups 1 -> single.
		h := Open(comm, fs, "m3", testStripe(), Options{NumGroups: 1})
		h.SetView(datatype.View{Disp: int64(r.WorldRank() * 100), Filetype: datatype.Contig(100)})
		h.WriteAtAll(0, pattern(r.WorldRank(), 100))
		if h.LastPlan().Mode != ModeSingle {
			t.Errorf("single group mode = %v want single", h.LastPlan().Mode)
		}
	})
}

func TestParCollScatteredIntermediateCorrectness(t *testing.T) {
	// BT-IO-like: each rank writes 4 blocks strided across the file.
	const nprocs = 6
	const bs, nblocks = 128, 4
	run := func(ngroups int, force bool) []byte {
		fs := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			comm := mpi.WorldComm(r)
			f := Open(comm, fs, "bt", testStripe(), Options{
				NumGroups:         ngroups,
				ForceIntermediate: force,
				Hints:             mpiio.Hints{CBBufferSize: 512},
			})
			ft := datatype.NewVector(nblocks, bs, nprocs*bs)
			f.SetView(datatype.View{Disp: int64(r.WorldRank() * bs), Filetype: ft})
			f.WriteAtAll(0, pattern(r.WorldRank(), nblocks*bs))
		})
		var data []byte
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			data = fs.Open(r, "bt", testStripe()).Contents()
		})
		return data
	}
	want := run(1, false)
	for _, g := range []int{2, 3, 6} {
		if got := run(g, false); !bytes.Equal(got, want) {
			t.Errorf("ParColl-%d intermediate-mode file differs", g)
		}
	}
	if got := run(2, true); !bytes.Equal(got, want) {
		t.Error("forced-intermediate file differs")
	}
}

func TestParCollReadBack(t *testing.T) {
	const nprocs, per = 6, 2500
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "rb", testStripe(), Options{NumGroups: 3})
		f.SetView(datatype.View{Disp: int64(r.WorldRank() * per), Filetype: datatype.Contig(per)})
		want := pattern(r.WorldRank(), per)
		f.WriteAtAll(0, want)
		comm.Barrier()
		got := f.ReadAtAll(0, per)
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d ParColl read-back mismatch", r.WorldRank())
		}
	})
}

func TestParCollScatteredReadBack(t *testing.T) {
	const nprocs = 4
	const bs, nblocks = 64, 3
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "srb", testStripe(), Options{NumGroups: 2, Hints: mpiio.Hints{CBBufferSize: 256}})
		ft := datatype.NewVector(nblocks, bs, nprocs*bs)
		f.SetView(datatype.View{Disp: int64(r.WorldRank() * bs), Filetype: ft})
		want := pattern(r.WorldRank(), nblocks*bs)
		f.WriteAtAll(0, want)
		comm.Barrier()
		got := f.ReadAtAll(0, nblocks*bs)
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d scattered ParColl read-back mismatch", r.WorldRank())
		}
	})
}

func TestParCollDisableIntermediateFallsBack(t *testing.T) {
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(4, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "di", testStripe(), Options{NumGroups: 2, DisableIntermediate: true})
		ft := datatype.NewVector(4, 100, 1600)
		f.SetView(datatype.View{Disp: int64(r.WorldRank() * 100), Filetype: ft})
		f.WriteAtAll(0, pattern(r.WorldRank(), 400))
		if f.LastPlan().Mode != ModeSingle {
			t.Errorf("mode = %v want single (intermediate disabled)", f.LastPlan().Mode)
		}
	})
}

func TestParCollPlanCaching(t *testing.T) {
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(4, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "pc", testStripe(), Options{NumGroups: 2})
		f.SetView(datatype.View{Disp: int64(r.WorldRank() * 1000), Filetype: datatype.Contig(1000)})
		f.WriteAtAll(0, pattern(r.WorldRank(), 1000))
		first := f.subComm
		f.WriteAtAll(0, pattern(r.WorldRank()+1, 1000)) // same layout, new data
		if f.subComm != first {
			t.Error("identical layout rebuilt the subgroup communicator")
		}
	})
}

func TestParCollGroupsReduceSyncShare(t *testing.T) {
	// The point of the paper: with many procs and interleaved data, more
	// groups -> less synchronization time for non-aggregators.
	syncTime := func(ngroups int) float64 {
		fs := lustre.NewFS(lustre.DefaultConfig())
		var sync float64
		const nprocs = 32
		mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			comm := mpi.WorldComm(r)
			f := Open(comm, fs, "sy", testStripe(), Options{
				NumGroups: ngroups,
				Hints:     mpiio.Hints{CBBufferSize: 2048},
			})
			const per = 8192
			f.SetView(datatype.View{Disp: int64(r.WorldRank() * per), Filetype: datatype.Contig(per)})
			f.WriteAtAll(0, pattern(r.WorldRank(), per))
			bd := f.Breakdown()
			if r.WorldRank() == nprocs-1 {
				sync = bd.Sync
			}
		})
		return sync
	}
	one, eight := syncTime(1), syncTime(8)
	if eight >= one {
		t.Errorf("ParColl-8 sync %g not below baseline sync %g", eight, one)
	}
}

// Property: for random serial layouts and group counts, ParColl output is
// byte-identical to independent writes.
func TestParCollMatchesIndependentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := rng.Intn(6) + 2
		ngroups := rng.Intn(nprocs) + 1
		per := rng.Intn(3000) + 100
		data := make([][]byte, nprocs)
		for i := range data {
			data[i] = make([]byte, per)
			rng.Read(data[i])
		}
		pcFS := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(nprocs, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			f := Open(mpi.WorldComm(r), pcFS, "q", testStripe(), Options{NumGroups: ngroups})
			f.SetView(datatype.View{Disp: int64(r.WorldRank() * per), Filetype: datatype.Contig(int64(per))})
			f.WriteAtAll(0, data[r.WorldRank()])
		})
		refFS := lustre.NewFS(lustre.DefaultConfig())
		mpi.Run(nprocs, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			f := mpiio.Open(mpi.WorldComm(r), refFS, "q", testStripe(), mpiio.Hints{})
			f.SetView(datatype.View{Disp: int64(r.WorldRank() * per), Filetype: datatype.Contig(int64(per))})
			f.WriteAt(0, data[r.WorldRank()])
		})
		var a, b []byte
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			a = pcFS.Open(r, "q", testStripe()).Contents()
			b = refFS.Open(r, "q", testStripe()).Contents()
		})
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if ModeSingle.String() != "single" || ModeDirect.String() != "direct" ||
		ModeIntermediate.String() != "intermediate" {
		t.Error("Mode.String mismatch")
	}
}

func TestAutoGroups(t *testing.T) {
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(32, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := Open(comm, fs, "auto", testStripe(), Options{AutoGroups: true})
		f.SetView(datatype.View{Disp: int64(r.WorldRank() * 1000), Filetype: datatype.Contig(1000)})
		f.WriteAtAll(0, pattern(r.WorldRank(), 1000))
		if got := f.LastPlan().NumGroups; got != 4 {
			t.Errorf("auto groups = %d want 4 (32 procs / 8)", got)
		}
		bd := f.Close()
		if bd.Total() <= 0 {
			t.Error("close summary empty")
		}
	})
}

func TestNaiveAggregatorsConcentration(t *testing.T) {
	// Cyclic-style topology: ranks r and r+4 share node r%4. Allowed
	// nodes {0,1}: naive gives both groups aggregators on nodes 0 and 1
	// (shared!), while the paper's algorithm splits them.
	nodeOf := func(r int) int { return r % 4 }
	groups := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	naive := naiveAggregators(groups, nodeOf, []int{0, 1})
	if len(naive[0]) != 2 || len(naive[1]) != 2 {
		t.Errorf("naive = %v; both groups should claim both nodes", naive)
	}
	dist := DistributeAggregators(groups, nodeOf, []int{0, 1})
	if len(dist[0]) != 1 || len(dist[1]) != 1 {
		t.Errorf("distributed = %v; nodes should be split one per group", dist)
	}
	if nodeOf(dist[0][0]) == nodeOf(dist[1][0]) {
		t.Errorf("distributed shares a node: %v", dist)
	}
}
