// Package mpiio is an MPI-IO implementation over the simulated MPI runtime
// and Lustre model: file views built from derived datatypes, independent
// read/write, and collective read/write using the ROMIO-style extended
// two-phase protocol (ext2ph).
//
// The collective path is the paper's baseline ("Cray MPI-IO" behaves the
// same way): gather every process's file range, partition the covered range
// into file domains across I/O aggregators, disseminate request metadata,
// then run interleaved rounds of data exchange and file I/O, each round
// synchronized by an alltoall across the whole communicator. Every
// operation's time is attributed to sync / exchange / io buckets so the
// paper's Figure 2 breakdown can be reproduced.
package mpiio

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/storage"
)

// Hints configures collective I/O, mirroring the MPI-IO hints the paper
// discusses (cb_nodes, cb_buffer_size, and the explicit aggregator list).
// Programs set the fields directly; there is no MPI_Info string parsing.
// Per-run state that is not a hint — the fault plan, tracing, metrics —
// lives on the run, and Open reads it from the rank (mpi.Rank.Fault,
// Tracer, Obs).
type Hints struct {
	// CBNodes caps the number of I/O aggregators chosen from the default
	// one-per-node list. Zero means one aggregator per node.
	CBNodes int
	// CBBufferSize is the collective buffer each aggregator fills per
	// round. Zero means 4 MiB (the ROMIO default of the paper's era).
	CBBufferSize int64
	// AggregatorList explicitly names aggregator world ranks (the paper's
	// hint (b)). It overrides CBNodes when non-empty.
	AggregatorList []int
	// AlltoallvAlgo selects the metadata alltoallv algorithm (ablation).
	AlltoallvAlgo mpi.AlltoallvAlgo
	// IndBufferSize is the data-sieving window for independent
	// non-contiguous I/O (ReadAtSieved/WriteAtSieved). Zero means the
	// ROMIO default of 4 MiB.
	IndBufferSize int64
	// IntraNode enables two-level collective I/O: PEs sharing a node merge
	// their offset/length vectors and data into their node leader before
	// the inter-node exchange, so only one process per node crosses the
	// NIC. It requires every aggregator to be its node's leader (the
	// default selection guarantees this); otherwise, and under
	// crash-carrying fault plans, the flat path runs instead.
	// Off by default: the flat protocol is bit-identical to prior releases.
	IntraNode bool
}

func (h Hints) cb() int64 {
	if h.CBBufferSize > 0 {
		return h.CBBufferSize
	}
	return 4 << 20
}

// Breakdown is the per-rank processing-time split of collective I/O,
// matching the paper's Figure 2 categories.
type Breakdown struct {
	Sync, Exchange, IO, Other float64
}

// Total returns the sum of the categories.
func (b Breakdown) Total() float64 { return b.Sync + b.Exchange + b.IO + b.Other }

// Translator maps a logical file extent to physical file segments. ParColl
// installs one when it switches to an intermediate file view: the two-phase
// protocol then aggregates in the logical (virtually joined) file while the
// aggregators' reads and writes land on the original physical layout.
type Translator interface {
	// Phys returns the physical segments backing logical [off, off+n),
	// ordered so their concatenation equals the logical bytes in order.
	Phys(off, n int64) []datatype.Segment
}

// File is an open MPI-IO file handle (one per rank, like an MPI_File).
type File struct {
	r     *mpi.Rank
	comm  *mpi.Comm
	lf    storage.File
	req   storage.Req // storage request, reused across accesses and rounds
	ext1  [1]storage.Extent
	buf1  [1][]byte // ext1 and buf1 back req while it carries one extent
	view  datatype.View
	hints Hints
	fault *fault.Plan   // the run's fault plan, read once at open
	tr    *obs.Recorder // the rank's span recorder (nil: untraced)
	reg   *obs.Registry // the rank's metrics registry (nil: unobserved)
	aggs  []int         // comm ranks acting as I/O aggregators, ascending
	scale float64
	vec   bool // backend has native list-I/O: one request per access, not per extent
	inj   bool // backend injects request errors: storage-tier recovery armed
	seq   int  // collective-call sequence, advances in lockstep
	xlate Translator
	prof  Breakdown
	prev  [mpi.NumClasses]float64
	ovl   OverlapStats
	hier  *fileHier // two-level collective state; nil on the flat path

	// Pre-resolved obs instruments (nil when reg is nil), so the round
	// loop pays a nil check instead of a map lookup per observation.
	obsRound   map[string]*obs.Histogram
	obsHidden  *obs.Histogram
	obsExposed *obs.Histogram

	// Fail-stop recovery state (see recover.go). deadWorld records world
	// ranks whose aggregator role this rank has seen die — it persists
	// across collective calls, so later calls fail the corpse over at round
	// zero instead of paying the watchdog again. degraded latches once the
	// failover budget is exhausted: the handle's collective machinery stays
	// retired for its remaining lifetime (stale round tags must never be
	// reused by a half-recovered protocol).
	deadWorld map[int]bool
	degraded  bool
	rstats    recovery.FailoverStats
}

// OverlapStats accounts the I/O tails of split-collective operations on
// this rank: Hidden is tail time that elapsed while the rank was doing
// other work (compute, the next round's exchange); Exposed is tail time the
// rank had to wait out (charged to ClassIO). For a given workload,
// Hidden + Exposed equals the I/O wait the blocking protocol would have
// charged — the split is what the overlap moved off the critical path.
type OverlapStats struct {
	Hidden, Exposed float64
}

// HiddenFrac is the fraction of the I/O tail that overlap hid.
func (o OverlapStats) HiddenFrac() float64 {
	t := o.Hidden + o.Exposed
	if t == 0 {
		return 0
	}
	return o.Hidden / t
}

// Overlap returns the rank's accumulated split-collective overlap stats.
func (f *File) Overlap() OverlapStats { return f.ovl }

// Recovery returns the rank's accumulated fail-stop recovery stats: zero on
// a healthy run, detections/failovers/degradations plus their virtual-time
// costs when the resilient path had work to do.
func (f *File) Recovery() recovery.FailoverStats { return f.rstats }

// traceRound emits one protocol-round span when tracing is enabled and feeds
// the phase-duration histogram when metrics are armed. end may lie in the
// virtual future for async I/O spans.
func (f *File) traceRound(kind string, start, end float64, round int) {
	if f.tr == nil && f.obsRound[kind] == nil {
		return
	}
	if f.tr != nil {
		f.tr.Add(f.r.WorldRank(), kind, start, end, "round "+strconv.Itoa(round))
	}
	if h := f.obsRound[kind]; h != nil {
		h.Observe(end - start)
	}
}

// note counts one recovery event in its FailoverStats field n and in the
// metrics registry as mpiio.recovery.<event> ("detections", "reelections",
// "failovers", "degradations"), so the two never disagree. Recovery events
// are rare, so the name concatenation is off the hot path by construction.
func (f *File) note(n *uint64, event string) {
	*n++
	if f.reg != nil {
		f.reg.Counter("mpiio.recovery." + event).Inc()
	}
}

// SetTranslator installs a logical-to-physical translator used by the
// aggregators' file I/O step (nil means identity).
func (f *File) SetTranslator(t Translator) { f.xlate = t }

// Open collectively opens (creating if needed) name on fs over comm. Every
// member must call it. The aggregator list is derived from the hints and
// the node topology, identically on every rank. The run state comes from
// the rank: its fault plan arms per-round noise and the resilient path, its
// recorder receives round and overlap spans, its registry round and overlap
// histograms and recovery counters. Recorder and registry only read
// virtual clocks, so a traced run is bit-identical to a bare one. fs is any
// storage backend (DESIGN.md §14); the protocol is backend-agnostic except
// that the flush rounds switch to vectored list-I/O calls when the backend
// supports them natively (Params().ListIO).
func Open(comm *mpi.Comm, fs storage.Backend, name string, stripe storage.Stripe, hints Hints) *File {
	r := rankOf(comm)
	params := fs.Params()
	f := &File{
		r:         r,
		comm:      comm,
		view:      datatype.WholeFile(),
		hints:     hints,
		fault:     r.Fault(),
		tr:        r.Tracer(),
		reg:       r.Obs(),
		scale:     params.CostScale,
		vec:       params.ListIO,
		inj:       params.Injecting,
		deadWorld: make(map[int]bool),
	}
	f.req.Exts, f.req.Bufs = f.ext1[:0], f.buf1[:0]
	if reg := f.reg; reg != nil {
		f.obsRound = map[string]*obs.Histogram{
			"round-sync":     reg.Histogram("mpiio.round.sync.secs", nil),
			"round-exchange": reg.Histogram("mpiio.round.exchange.secs", nil),
			"round-io":       reg.Histogram("mpiio.round.io.secs", nil),
		}
		f.obsHidden = reg.Histogram("mpiio.overlap.hidden.secs", nil)
		f.obsExposed = reg.Histogram("mpiio.overlap.exposed.secs", nil)
	}
	// Aggregator selection needs the node of every member; gathering it is
	// part of open's collective cost.
	old := r.SetClass(mpi.ClassSync)
	nodes := comm.AllgatherInt64s([]int64{int64(r.W.Cluster.NodeOf(r.WorldRank()))})
	r.SetClass(old)
	f.aggs = SelectAggregators(comm.Size(), func(cr int) int { return int(nodes[cr][0]) }, comm.RankOfWorld, hints, nil)
	// Two-level collectives: build the hierarchy when asked for and viable.
	// Viability (every aggregator leads its node) and the crash gate are pure
	// functions of topology and options, so all ranks agree on whether the
	// collective NewHierarchy runs. The resilient path stays flat — failover
	// re-elects aggregators mid-call, which would orphan the leader roles.
	if hints.IntraNode && !f.recoveryOn() {
		lay := mpi.LayoutOf(comm)
		if hierViable(lay, f.aggs) {
			old := r.SetClass(mpi.ClassSync)
			h := mpi.NewHierarchy(comm)
			r.SetClass(old)
			aggNode := make([]int, len(f.aggs))
			for i, cr := range f.aggs {
				aggNode[i] = lay.NodeIdx[cr]
			}
			f.hier = &fileHier{h: h, aggNode: aggNode}
		}
	}
	f.lf = fs.Open(r, name, stripe)
	f.markProf()
	return f
}

// Hierarchical reports whether this handle runs the two-level collective
// path (Hints.IntraNode requested and viable on this communicator).
func (f *File) Hierarchical() bool { return f.hier != nil }

// rankOf digs the Rank out of a Comm via a tiny interface on mpi.Comm.
func rankOf(c *mpi.Comm) *mpi.Rank { return c.RankHandle() }

// SelectAggregators is the one aggregator-selection rule, shared by Open,
// ParColl's partition and its degradation-aware re-election. It returns, in
// comm ranks, either the hinted world ranks that are members of the
// communicator (a repeated rank counts once — the plan holds one file domain
// per aggregator), or the first comm rank on each distinct node that is not
// in dead, capped at hints.CBNodes when set. n is the communicator size,
// nodeOf gives a comm rank's node and rankOfWorld a world rank's comm rank
// (-1 for a non-member). It reads nodes through nodeOf rather than taking a
// per-rank table, so a caller that already holds one builds nothing.
func SelectAggregators(n int, nodeOf, rankOfWorld func(int) int, hints Hints, dead map[int]bool) []int {
	if len(hints.AggregatorList) > 0 {
		aggs := make([]int, 0, len(hints.AggregatorList))
		for _, w := range hints.AggregatorList {
			if cr := rankOfWorld(w); cr >= 0 && !slices.Contains(aggs, cr) {
				aggs = append(aggs, cr)
			}
		}
		if len(aggs) == 0 {
			panic("mpiio: aggregator list has no members in communicator")
		}
		return aggs
	}
	nodes := 0
	for cr := 0; cr < n; cr++ {
		nodes = max(nodes, nodeOf(cr)+1)
	}
	taken := make([]bool, nodes)
	aggs := make([]int, 0, min(n, nodes))
	for cr := 0; cr < n && (hints.CBNodes <= 0 || len(aggs) < hints.CBNodes); cr++ {
		if nd := nodeOf(cr); !taken[nd] && !dead[nd] {
			taken[nd] = true
			aggs = append(aggs, cr)
		}
	}
	return aggs
}

// Aggregators returns the comm ranks acting as I/O aggregators.
func (f *File) Aggregators() []int { return f.aggs }

// SetAggregators replaces the aggregator set (comm ranks) for subsequent
// collective calls — ParColl's degradation-aware re-election hook: a
// subgroup that learns one of its staging nodes is permanently degraded
// re-points its collectives at the healthy nodes' ranks. File domains are
// recomputed from f.aggs on every call, so no other handle state depends
// on the old set. Counted as a re-election in the failover stats.
func (f *File) SetAggregators(aggs []int) {
	f.aggs = append([]int(nil), aggs...)
	f.note(&f.rstats.Reelections, "reelections")
}

// SetView installs a file view (collective in MPI; here each rank sets its
// own, which may legitimately differ per rank).
func (f *File) SetView(v datatype.View) { f.view = v }

// Storage exposes the underlying storage handle — whatever backend the file
// was opened on — for verification in tests.
func (f *File) Storage() storage.File { return f.lf }

// markProf snapshots the rank's class counters so deltas can accumulate
// into the per-file breakdown.
func (f *File) markProf() {
	f.prev = f.r.Prof().Times
}

func (f *File) absorbProf() {
	cur := f.r.Prof().Times
	f.prof.Sync += cur[mpi.ClassSync] - f.prev[mpi.ClassSync]
	f.prof.Exchange += cur[mpi.ClassExchange] - f.prev[mpi.ClassExchange]
	f.prof.IO += cur[mpi.ClassIO] - f.prev[mpi.ClassIO]
	f.prof.Other += cur[mpi.ClassOther] - f.prev[mpi.ClassOther]
	f.prev = cur
}

// Breakdown returns the accumulated sync/exchange/io/other time this rank
// has spent in operations on this file (the summary the paper reports at
// file close).
func (f *File) Breakdown() Breakdown {
	f.absorbProf()
	return f.prof
}

// WriteAt writes independently (no coordination): the view maps the logical
// range to physical segments, each written directly. This is the paper's
// "w/o Coll" baseline. On a list-I/O backend the whole segment list goes
// out as one request — Ching et al.'s optimization for exactly this
// noncontiguous independent pattern.
func (f *File) WriteAt(logOff int64, data []byte) {
	segs := f.view.Map(logOff, int64(len(data)))
	q := f.request(true, len(segs))
	var pos int64
	for _, s := range segs {
		q.Exts = append(q.Exts, storage.Extent{Off: s.Off, Len: s.Len})
		q.Bufs = append(q.Bufs, data[pos:pos+s.Len])
		pos += s.Len
		if !f.vec {
			storage.Do(f.r, f.lf, q)
			q.Exts, q.Bufs = q.Exts[:0], q.Bufs[:0]
		}
	}
	if len(q.Exts) > 0 {
		storage.Do(f.r, f.lf, q)
	}
	f.absorbProf()
}

// ReadAt reads independently through the view, one request per access on
// list-I/O backends like WriteAt.
func (f *File) ReadAt(logOff, n int64) []byte {
	segs := f.view.Map(logOff, n)
	q := f.request(false, len(segs))
	for _, s := range segs {
		q.Exts = append(q.Exts, storage.Extent{Off: s.Off, Len: s.Len})
		if !f.vec {
			storage.Do(f.r, f.lf, q)
			q.Exts = q.Exts[:0]
		}
	}
	if len(q.Exts) > 0 {
		storage.Do(f.r, f.lf, q)
	}
	out := make([]byte, 0, n)
	for _, b := range q.Bufs {
		out = append(out, b...)
	}
	f.absorbProf()
	return out
}

// request empties the handle's reusable storage request for an access of n
// extents, sized up front when they all go out as one request.
func (f *File) request(write bool, n int) *storage.Req {
	q := &f.req
	q.Write, q.Exts, q.Bufs = write, q.Exts[:0], q.Bufs[:0]
	if f.vec {
		q.Exts, q.Bufs = slices.Grow(q.Exts, n), slices.Grow(q.Bufs, n)
	}
	return q
}

func (f *File) String() string {
	return fmt.Sprintf("mpiio.File{comm=%d ranks, %d aggs}", f.comm.Size(), len(f.aggs))
}
