// Package core implements ParColl, the paper's contribution: partitioned
// collective I/O. It augments the extended two-phase protocol (implemented
// in internal/mpiio) with three mechanisms:
//
//   - file area partitioning: processes and the file are consistently
//     divided into subgroups with disjoint file areas (fa.go);
//   - I/O aggregator distribution: the hinted aggregators are spread across
//     subgroups, at least one each, never sharing a node across groups
//     (aggsel.go);
//   - intermediate file views: scattered access patterns are virtually
//     joined so partitioning always succeeds, with reads/writes translated
//     back to the physical layout (iview.go).
//
// Partitioning happens at file-view initiation time, as in the paper: the
// one global gather of every rank's view footprint is the last global
// operation. Every subsequent collective call runs ordinary two-phase
// collective I/O entirely inside the rank's subgroup, so the global
// synchronization that builds the "collective wall" is gone and subgroups
// are free to progress (and drift) independently. ParColl does not change
// MPI-IO semantics: for non-overlapping concurrent writes the resulting
// file is byte-identical to the unpartitioned protocol's — except under
// Options.MaterializeIntermediate, which stores the intermediate file view
// as-is and is read back correctly only through the same views.
package core

import (
	"fmt"
	"slices"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/nbio"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/storage"
)

// Mode reports how the current file view was partitioned.
type Mode int

const (
	// ModeSingle means no partitioning (one global group; baseline ext2ph).
	ModeSingle Mode = iota
	// ModeDirect means the file was cut into disjoint FAs directly
	// (patterns (a) and (b) of the paper's Figure 4).
	ModeDirect
	// ModeIntermediate means FAs intersected and an intermediate file view
	// was switched in (pattern (c)).
	ModeIntermediate
)

func (m Mode) String() string {
	switch m {
	case ModeSingle:
		return "single"
	case ModeDirect:
		return "direct"
	case ModeIntermediate:
		return "intermediate"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures ParColl.
type Options struct {
	// NumGroups is the requested number of subgroups (the paper's
	// ParColl-N). Values <= 1 run the unpartitioned baseline protocol
	// unless AutoGroups is set.
	NumGroups int
	// AutoGroups picks the subgroup count automatically — the paper's
	// future-work item. The heuristic keeps subgroups of about eight
	// processes (the paper's empirical sweet spot across IOR and
	// MPI-Tile-IO), clipped to what the access pattern can support.
	AutoGroups bool
	// Hints passes through the MPI-IO hints (collective buffer size,
	// aggregator count or list, alltoallv algorithm).
	Hints mpiio.Hints
	// Lat, when non-nil, receives one sample per blocking collective call
	// (WriteAtAll/ReadAtAll): the caller's elapsed virtual seconds inside
	// the call. The multi-tenant layer attaches one recorder per job to
	// report exact p50/p99 collective-call latency; it only reads virtual
	// clocks, so an instrumented run is bit-identical to a bare one.
	Lat *obs.LatencyRecorder
	// ForceIntermediate always uses the intermediate-view path, even when
	// direct FA partitioning would succeed (ablation).
	ForceIntermediate bool
	// DisableIntermediate forbids view switching; views whose FAs
	// intersect fall back to a single group (ablation).
	DisableIntermediate bool
	// NaiveAggregators skips the paper's distribution algorithm: each
	// subgroup keeps whichever default aggregators happen to be among its
	// members, so the hinted aggregators can pile into the first groups —
	// the failure mode Section 4.2 is designed to avoid (ablation).
	NaiveAggregators bool
	// MaterializeIntermediate stores the intermediate file view instead of
	// translating writes back to the original physical layout: each
	// group's FA lives contiguously at its logical position, so
	// aggregators issue large dense requests. Reads through the same
	// ParColl handle map back identically, so applications that access the
	// file through their views (as the paper's benchmarks do) see
	// unchanged semantics — but the on-disk format differs from the
	// unpartitioned protocol's. The default translates back segment by
	// segment, keeping the on-disk bytes identical to baseline collective
	// I/O at the cost of physically scattered aggregator requests for
	// pattern-(c) workloads.
	MaterializeIntermediate bool
}

// Plan describes how the current view was partitioned (for tests, tools,
// and the experiment harness). Partition builds it; nothing writes into a
// Plan's slices afterwards, so a copy taken once stays as it was.
type Plan struct {
	Mode        Mode
	NumGroups   int
	Groups      [][]int // world ranks per group
	Aggregators [][]int // world ranks per group
	MyGroup     int

	// Under MaterializeIntermediate: each comm rank's logical offset in the
	// intermediate file and the bytes of one instance of it.
	prefix map[int]int64
	total  int64
}

// autoGroupSize is the target processes-per-subgroup for AutoGroups; the
// paper's sweeps found aggregation-vs-synchronization balance at about
// eight processes per group (Figures 6 and 7).
const autoGroupSize = 8

// File is a ParColl file handle. Like an MPI_File, each rank holds its own.
type File struct {
	r      *mpi.Rank
	comm   *mpi.Comm
	fs     storage.Backend
	name   string
	stripe storage.Stripe
	opts   Options
	fault  *fault.Plan // the run's fault plan, read once at open
	view   datatype.View

	viewGen int // bumped by SetView
	planGen int // view generation the current plan was built for
	bbEpoch int // staging-death epoch the aggregator set accounts for
	subComm *mpi.Comm
	subFile *mpiio.File
	plan    Plan

	prof mpiio.Breakdown
	prev [mpi.NumClasses]float64
}

// Open collectively opens name with ParColl semantics over comm.
func Open(comm *mpi.Comm, fs storage.Backend, name string, stripe storage.Stripe, opts Options) *File {
	f := &File{
		r:       comm.RankHandle(),
		comm:    comm,
		fs:      fs,
		name:    name,
		stripe:  stripe,
		opts:    opts,
		fault:   comm.RankHandle().Fault(),
		view:    datatype.WholeFile(),
		viewGen: 1,
	}
	f.prev = f.r.Prof().Times
	return f
}

// SetView installs the rank's file view. It is collective in effect: all
// ranks must install their (per-rank) views in the same call sequence, and
// the next collective operation re-partitions from the new views.
func (f *File) SetView(v datatype.View) {
	f.view = v
	f.viewGen++
}

// LastPlan reports how the current view is partitioned.
func (f *File) LastPlan() Plan { return f.plan }

func (f *File) absorb() {
	cur := f.r.Prof().Times
	f.prof.Sync += cur[mpi.ClassSync] - f.prev[mpi.ClassSync]
	f.prof.Exchange += cur[mpi.ClassExchange] - f.prev[mpi.ClassExchange]
	f.prof.IO += cur[mpi.ClassIO] - f.prev[mpi.ClassIO]
	f.prof.Other += cur[mpi.ClassOther] - f.prev[mpi.ClassOther]
	f.prev = cur
}

// Breakdown returns the rank's accumulated sync/exchange/io/other split for
// this file's operations.
func (f *File) Breakdown() mpiio.Breakdown {
	f.absorb()
	return f.prof
}

// Close synchronizes the communicator and returns the final breakdown —
// the per-file summary the paper's instrumentation reports at close time.
func (f *File) Close() mpiio.Breakdown {
	old := f.r.SetClass(mpi.ClassSync)
	f.comm.Barrier()
	f.r.SetClass(old)
	return f.Breakdown()
}

// WriteAtAll collectively writes data through the view at logical offset
// logOff. All communicator members must call it; after partitioning, the
// call is collective only within the rank's subgroup.
func (f *File) WriteAtAll(logOff int64, data []byte) {
	t0 := f.r.Now()
	f.ensurePlan()
	if f.plan.Mode != ModeIntermediate {
		f.subFile.SetView(f.view)
	}
	f.reelectDegraded()
	f.subFile.WriteAtAll(logOff, data)
	f.absorb()
	if rec := f.opts.Lat; rec != nil {
		rec.Add(f.r.Now() - t0)
	}
}

// WriteAt writes independently through the view — no coordination, each
// rank straight to storage (the paper's "w/o Coll" baseline; vectored on
// list-I/O backends).
func (f *File) WriteAt(logOff int64, data []byte) {
	f.ensurePlan()
	f.subFile.SetView(f.view)
	f.subFile.WriteAt(logOff, data)
	f.absorb()
}

// ReadAt reads independently through the view.
func (f *File) ReadAt(logOff, n int64) []byte {
	f.ensurePlan()
	f.subFile.SetView(f.view)
	out := f.subFile.ReadAt(logOff, n)
	f.absorb()
	return out
}

// ReadAtAll collectively reads n view-logical bytes at logOff.
func (f *File) ReadAtAll(logOff, n int64) []byte {
	t0 := f.r.Now()
	f.ensurePlan()
	if f.plan.Mode != ModeIntermediate {
		f.subFile.SetView(f.view)
	}
	out := f.subFile.ReadAtAll(logOff, n)
	f.absorb()
	if rec := f.opts.Lat; rec != nil {
		rec.Add(f.r.Now() - t0)
	}
	return out
}

// WriteAllBegin starts a split collective write (MPI_File_write_all_begin
// semantics): the two-phase rounds run now, with each subgroup pipelining
// its exchange and OST writes independently inside its File Area, and up to
// two writes per aggregator still in flight on return. Compute between
// Begin and the request's Wait hides their tails. No other collective may
// run on this handle until the Wait.
func (f *File) WriteAllBegin(logOff int64, data []byte) *nbio.Request {
	f.ensurePlan()
	if f.plan.Mode != ModeIntermediate {
		f.subFile.SetView(f.view)
	}
	f.reelectDegraded()
	sub := f.subFile.WriteAllBegin(logOff, data)
	return nbio.Start(f.r, f.r.Now(), func() {
		f.subFile.WriteAllEnd(sub)
		f.absorb()
	}, nil, sub)
}

// ReadAllBegin starts a split collective read; ReadAllEnd returns the data.
func (f *File) ReadAllBegin(logOff, n int64) *nbio.Request {
	f.ensurePlan()
	if f.plan.Mode != ModeIntermediate {
		f.subFile.SetView(f.view)
	}
	sub := f.subFile.ReadAllBegin(logOff, n)
	out := new([]byte)
	return nbio.Start(f.r, f.r.Now(), func() {
		*out = f.subFile.ReadAllEnd(sub)
		f.absorb()
	}, nil, out)
}

// ReadAllEnd completes a split collective read and returns the data.
func (f *File) ReadAllEnd(q *nbio.Request) []byte {
	q.Wait()
	return *(q.Op().(*[]byte))
}

// Overlap returns this rank's accumulated split-collective overlap stats
// (hidden vs. exposed I/O tail time) from the current subgroup file.
func (f *File) Overlap() mpiio.OverlapStats {
	if f.subFile == nil {
		return mpiio.OverlapStats{}
	}
	return f.subFile.Overlap()
}

// Recovery returns this rank's accumulated fail-stop recovery stats from the
// current subgroup file: zero on healthy runs, the subgroup-confined
// detection/failover record when a fault plan carried crashes. Partitioning
// is what keeps the numbers small — only the crashed aggregator's subgroup
// replans, while under the unpartitioned baseline every rank participates.
func (f *File) Recovery() recovery.FailoverStats {
	if f.subFile == nil {
		return recovery.FailoverStats{}
	}
	return f.subFile.Recovery()
}

// reelectDegraded is ParColl's storage-degradation-aware aggregator
// re-election (DESIGN.md §15). A staging node whose memory died is not a
// crashed rank — its process still answers, so the fail-stop watchdogs
// have nothing to detect — but every byte it aggregates from now on pays
// write-through pace. The unpartitioned protocol is stuck with it: ROMIO
// fixes the aggregator set at open and has no per-call planning step to
// revisit it. A ParColl subgroup replans per view, so it can also replan
// per degradation epoch: the group agrees on how many scheduled staging
// deaths its members' clocks have passed (a subgroup allgather — the cost
// is group-confined, the paper's argument again), and on an epoch change
// re-elects one aggregator per *healthy* node among its members. Groups
// without a dead staging node pay only the allgather; ModeSingle pays
// nothing and keeps its open-time aggregators. Healthy runs (no BBFails,
// or a backend the plan cannot reach) never enter — goldens stay
// bit-identical.
func (f *File) reelectDegraded() {
	if f.plan.Mode == ModeSingle || f.subFile.Hierarchical() ||
		!f.fault.HasBBFails() || !f.fs.Params().Injecting {
		return
	}
	r := f.r
	// Agree on the degradation epoch at synchronized time. [sync, subgroup]
	old := r.SetClass(mpi.ClassSync)
	meta := f.subComm.AllgatherInt64s([]int64{int64(f.fault.BBDeadCount(r.Now()))})
	r.SetClass(old)
	epoch := 0
	for _, m := range meta {
		if int(m[0]) > epoch {
			epoch = int(m[0])
		}
	}
	if epoch == f.bbEpoch {
		return
	}
	f.bbEpoch = epoch
	dead, ok := f.fault.BBDeadNodes(epoch)
	if !ok {
		return // a kill-all plan leaves no healthy node to move to
	}
	// The default selection rule over the group, minus dead staging nodes.
	// An all-dead group has nowhere to go.
	sub := f.subComm
	nodeOf := func(cr int) int { return r.W.Cluster.NodeOf(sub.WorldRankOf(cr)) }
	aggs := mpiio.SelectAggregators(sub.Size(), nodeOf, sub.RankOfWorld, mpiio.Hints{}, dead)
	if len(aggs) == 0 || slices.Equal(aggs, f.subFile.Aggregators()) {
		return
	}
	f.subFile.SetAggregators(aggs)
	// Copy on write: plans LastPlan handed out earlier share the outer slice.
	f.plan.Aggregators = slices.Clone(f.plan.Aggregators)
	f.plan.Aggregators[f.plan.MyGroup] = remap(aggs, sub.WorldRankOf)
}

// footprint returns the row v contributes to Partition's table — start,
// end, byte size and extent of one filetype instance, start and end -1 when
// the view has nothing to partition — and that instance's segments.
func footprint(v datatype.View) (row [4]int64, segs []datatype.Segment) {
	if size := v.Filetype.Size(); size > 0 {
		segs = v.Map(0, size)
	}
	row = [4]int64{-1, -1, 0, v.Filetype.Extent()}
	if (!v.IsContiguous() || v.Filetype.Size() > 1) && len(segs) > 0 {
		row[0], row[1] = segs[0].Off, segs[len(segs)-1].End()
		for _, s := range segs {
			row[2] += s.Len
		}
	}
	return row, segs
}

// ensurePlan partitions processes and file for the current view. It runs a
// global gather the first collective call after a SetView — the paper's
// "file view initiation time" — and nothing global afterwards.
func (f *File) ensurePlan() {
	if f.planGen == f.viewGen && f.subFile != nil {
		return
	}
	f.planGen = f.viewGen
	r, comm := f.r, f.comm

	// The one global step: gather every rank's view footprint. [sync]
	row, segs := footprint(f.view)
	old := r.SetClass(mpi.ClassSync)
	meta := comm.AllgatherInt64s(row[:])
	r.SetClass(old)

	nodeOf := func(cr int) int { return r.W.Cluster.NodeOf(comm.WorldRankOf(cr)) }
	plan := Partition(meta, comm.WorldRankOf, comm.RankOfWorld, nodeOf, f.opts)
	plan.MyGroup = groupOf(plan.Groups, comm.WorldRankOf(comm.Rank()))

	// Split the communicator along the plan. [sync]
	old = r.SetClass(mpi.ClassSync)
	subComm := comm.Split(plan.MyGroup, comm.Rank())
	r.SetClass(old)

	subHints := f.opts.Hints
	if plan.Mode != ModeSingle {
		subHints.AggregatorList = plan.Aggregators[plan.MyGroup]
		subHints.CBNodes = 0
	}
	subFile := mpiio.Open(subComm, f.fs, f.name, f.stripe, subHints)

	switch {
	case plan.Mode == ModeIntermediate && !f.opts.MaterializeIntermediate:
		// Exchange one instance's segment lists within the subgroup and
		// build the group-local compact view; aggregators translate
		// logical windows back to the physical layout. [sync, subgroup only]
		old = r.SetClass(mpi.ClassSync)
		lists := subComm.Allgather(encSegs(segs))
		r.SetClass(old)
		segLists := make([][]datatype.Segment, len(lists))
		for i, b := range lists {
			segLists[i] = decSegs(b)
		}
		cv := newCompactView(segLists, f.view.Filetype.Extent())
		subFile.SetTranslator(cv)
		var ft datatype.Type = datatype.Contig(0)
		if len(segs) > 0 {
			ft = datatype.NewExtended(datatype.NewIndexed(cv.logicalSegs(segs)), cv.size)
		}
		subFile.SetView(datatype.View{Disp: 0, Filetype: ft})
	case plan.Mode == ModeIntermediate:
		// Materialized intermediate file: every rank's data for one instance
		// lives contiguously at its logical prefix, and instances tile at the
		// total per-instance size. Aggregator requests are as dense as the
		// unpartitioned protocol's.
		var ft datatype.Type = datatype.Contig(0)
		if size := row[2]; size > 0 {
			ft = datatype.NewExtended(datatype.Contig(size), plan.total)
		}
		subFile.SetView(datatype.View{Disp: plan.prefix[comm.Rank()], Filetype: ft})
	}

	f.plan = plan
	f.subComm = subComm
	f.subFile = subFile
	f.bbEpoch = 0 // a fresh subFile starts from the open-time aggregators
	f.absorb()
}

// Partition is the decision ParColl takes at file-view initiation time, as
// a value (paper §4.1–4.2): every rank calls it on the same gathered table
// and so derives the identical plan. meta holds one footprint row per comm
// rank, {start, end, size, extent} of one filetype instance with start and
// end -1 when the rank has nothing to partition. worldOf and rankOfWorld
// translate comm ranks to world ranks and back, and nodeOf gives a comm
// rank's node. Groups and aggregators come back as world ranks; MyGroup is
// left for the caller, the only rank-specific part.
func Partition(meta [][]int64, worldOf, rankOfWorld, nodeOf func(int) int, opts Options) Plan {
	n := len(meta)
	spans := make([]span, n)
	uniformExtent, anyActive := true, false
	refExtent := int64(-1)
	for cr, m := range meta {
		spans[cr] = span{rank: cr, st: m[0], end: m[1], size: m[2], active: m[0] >= 0 && m[1] > m[0]}
		if !spans[cr].active {
			continue
		}
		anyActive = true
		// Compare active ranks against the first active rank's extent.
		if refExtent == -1 {
			refExtent = m[3]
		} else if m[3] != refExtent {
			uniformExtent = false
		}
	}

	ngroups := opts.NumGroups
	if opts.AutoGroups {
		ngroups = n / autoGroupSize
	}
	ngroups = min(max(ngroups, 1), n)
	if !anyActive {
		ngroups = 1
	}

	var groups [][]int // comm ranks
	var prefix map[int]int64
	mode := ModeSingle
	if ngroups > 1 {
		if opts.ForceIntermediate && uniformExtent {
			mode = ModeIntermediate
			groups, prefix = partitionLogical(spans, ngroups)
		} else if g, ok := partitionDirect(spans, ngroups); ok {
			mode = ModeDirect
			groups = g
		} else if opts.DisableIntermediate || !uniformExtent {
			mode = ModeSingle
		} else {
			mode = ModeIntermediate
			groups, prefix = partitionLogical(spans, ngroups)
		}
	}

	// The default or hinted aggregators; partitioned, their nodes are the
	// ones DistributeAggregators spreads across the groups (paper §4.2).
	aggs := mpiio.SelectAggregators(n, nodeOf, rankOfWorld, opts.Hints, nil)
	var aggsPerGroup [][]int // comm ranks
	switch {
	case mode == ModeSingle:
		groups = [][]int{allRanks(n)}
		aggsPerGroup = [][]int{aggs}
	case opts.NaiveAggregators:
		aggsPerGroup = naiveAggregators(groups, nodeOf, remap(aggs, nodeOf))
	default:
		aggsPerGroup = DistributeAggregators(groups, nodeOf, remap(aggs, nodeOf))
	}

	plan := Plan{Mode: mode, NumGroups: len(groups), Groups: groups, Aggregators: aggsPerGroup}
	for _, g := range groups {
		remap(g, worldOf)
	}
	for _, g := range aggsPerGroup {
		remap(g, worldOf)
	}
	if mode == ModeIntermediate && opts.MaterializeIntermediate {
		plan.prefix = prefix
		for _, sp := range spans {
			if sp.active {
				plan.total += sp.size
			}
		}
	}
	return plan
}

// remap replaces each comm rank in crs by to(rank), in place, and returns
// crs. Callers pass slices they alone hold.
func remap(crs []int, to func(int) int) []int {
	for i, cr := range crs {
		crs[i] = to(cr)
	}
	return crs
}

func allRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func groupOf(groups [][]int, rank int) int {
	for g, members := range groups {
		for _, m := range members {
			if m == rank {
				return g
			}
		}
	}
	panic("core: rank not assigned to any group")
}
