package mpiio

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/storage"
)

// Fail-stop fault tolerance for the collective write path: the round
// driver's heartbeat size agreement (ext2ph.go).
//
// The healthy round synchronizes with a dense alltoall, which has no failure
// semantics: a crashed aggregator would stall the collective forever. Under a
// fault plan that carries crashes, a collective write agrees on each round's
// sizes this way instead, so that an aggregator's death is *observable*:
//
//   - Instead of the alltoall, each live aggregator sends every member a
//     24-byte plan message per round — [st_loc, end_loc, want] — announcing
//     its touched range and how much it expects from that member this round.
//     The announcement doubles as a heartbeat: it is sent even when want is
//     zero.
//   - Members collect announcements with a virtual-time watchdog
//     (mpi.RecvUntil). A dead aggregator role sends nothing, so every
//     member's watchdog for it expires in the same round — detection is
//     consistent across ranks without any consensus protocol, because the
//     timeout is pure virtual time and the silence is total.
//   - On detection, the dead aggregator's *unwritten remainder* —
//     [st_loc + round*cb, end_loc), known from its announcements (or its
//     whole file domain if it died before announcing) — is re-partitioned
//     across the surviving aggregators with the same computeFDs used for the
//     original domains. Each member clips its own requests against the annex
//     subdomains and disseminates them to the new owners; from then on annex
//     windows advance alongside the main windows, and the owners stage and
//     write them exactly as the two-phase protocol would have.
//   - When no aggregator survives, the lowest comm rank whose aggregator
//     role is not dead is elected owner (deterministically, with no
//     communication — every rank runs the same rule on the same dead set).
//   - A failover budget (maxFailovers) bounds the cascade:
//     one failure past the budget degrades the call — every member
//     independently rewrites all of its own data. Degradation is idempotent
//     because collective and independent writes land identical bytes.
//
// Determinism: the protocol introduces no new randomness. Timeouts are pure
// virtual time; detection rounds, owner election, annex bounds, and the
// extended round count are pure functions of the fault plan and the request
// pattern, computed identically on every rank. The crashed rank itself
// consults the plan only for its *own* role (to fall silent); everyone else
// detects honestly, by timeout.
//
// The crash model kills the aggregator *role*, not the process: the rank
// stops announcing, collecting, and writing, but keeps participating as a
// data source. That is what makes byte-exact recovery possible — the data a
// dead aggregator never wrote is still held by its original owners, and the
// annex owners collect it from them.

// The resilient path's two fixed settings.
const (
	// watchdogTimeout is the per-round watchdog deadline, virtual seconds:
	// a subgroup member that hears nothing from its aggregator for this
	// long declares it dead. It must dominate the aggregator's worst
	// per-round latency — announcements are produced one per round, and the
	// round includes the collective-buffer write, so a timeout below the
	// round's I/O time reads ordinary disk latency as death and falsely
	// suspects every healthy aggregator (ROADMAP 4e). 250 ms sits ~5x above
	// the slowest rounds in the shipped experiment geometries while staying
	// well under whole-run times.
	watchdogTimeout = 2.5e-1
	// maxFailovers bounds aggregator failovers per collective call; one
	// more failure degrades the call to independent I/O.
	maxFailovers = 2
)

// recoveryOn reports whether this call must run the resilient round loop:
// either the plan crashes aggregators, or the storage backend itself is
// injecting faults (f.inj) under a plan that can kill a staging node — then
// writes must go through the erroring Try path so a StagingLostError can
// surface and be repaired instead of panicking mid-collective. Plans whose
// storage faults cannot reach the selected backend leave the healthy path
// untouched (bit-identical goldens).
func (f *File) recoveryOn() bool {
	return f.fault.HasCrashes() || (f.inj && f.fault.HasBBFails())
}

// aggCrashedNow asks the plan whether THIS rank's aggregator role is dead at
// the given round of the current call. Only ever consulted for the rank
// itself — other ranks' deaths are detected by timeout, never read from the
// plan.
func (f *File) aggCrashedNow(round int) bool {
	return f.fault.AggCrashed(f.r.WorldRank(), f.seq, round)
}

// Recovery-path tags, above the independent data tags (dataTag tops out at
// 62_563) and below the runtime's collective tag space (65_536).
func (f *File) planTag(round int) int      { return 62564 + (f.seq%7)*128 + round%128 }
func (f *File) annexCtlTag(round int) int  { return 63500 + (f.seq%7)*64 + round%64 }
func (f *File) annexDataTag(round int) int { return 64400 + (f.seq%7)*128 + round%128 }

// encPlan packs one plan/heartbeat message: [st_loc, end_loc, want].
func encPlan(st, end int64, want int) []byte {
	b := perf.GetBuf(24)
	binary.LittleEndian.PutUint64(b, uint64(st))
	binary.LittleEndian.PutUint64(b[8:], uint64(end))
	binary.LittleEndian.PutUint64(b[16:], uint64(want))
	return b
}

func decPlan(b []byte) (st, end int64, want int) {
	st = int64(binary.LittleEndian.Uint64(b))
	end = int64(binary.LittleEndian.Uint64(b[8:]))
	want = int(binary.LittleEndian.Uint64(b[16:]))
	return st, end, want
}

// ftState is what one resilient call has learned from the heartbeats, plus
// what it needs to repair a failure: the rank's own segments.
type ftState struct {
	segs []datatype.Segment // my view-mapped physical segments
	pre  []int64            // prefix data positions for segs

	dead    []bool  // per agg index: known dead (this call or earlier)
	wasDead []bool  // dead as of the start of the current round
	aggSt   []int64 // per agg index: last announced st_loc
	aggEnd  []int64
	known   []bool

	failovers int
	degraded  bool
}

func newFTState(f *File, segs []datatype.Segment, pre []int64) *ftState {
	nag := len(f.aggs)
	return &ftState{
		segs:    segs,
		pre:     pre,
		dead:    make([]bool, nag),
		wasDead: make([]bool, nag),
		aggSt:   make([]int64, nag),
		aggEnd:  make([]int64, nag),
		known:   make([]bool, nag),
	}
}

// carryDead fails over, at round 0, the aggregators that died in an earlier
// call on this handle: their silence was already paid for once, so the call
// starts with their whole file domain annexed and no watchdog armed for them.
// It reports false if that alone exhausts the failover budget.
func (c *call) carryDead() bool {
	f, ft := c.f, c.ft
	if c.fdLo == nil {
		return true // the call moves no data
	}
	var carried []int
	for a, cr := range f.aggs {
		if f.deadWorld[f.comm.WorldRankOf(cr)] {
			c.markAggDead(a)
			carried = append(carried, a)
		}
	}
	if len(carried) > 0 {
		t0 := f.r.Now()
		c.failover(carried, 0)
		f.noteRecoverSpan(f.r.Now() - t0)
	}
	return !ft.degraded
}

// markAggDead records aggregator a's death. When the role is this rank's own
// it stops staging its file domain — main is owned[0] for as long as the
// role lives, because annexes are only ever appended behind it.
func (c *call) markAggDead(a int) {
	c.ft.dead[a] = true
	if a == c.myAgg {
		c.owned = c.owned[1:]
	}
}

// markDead opens a resilient round: it snapshots the dead set, and if this
// rank's own aggregator role fail-stops this round, marks it — from here on
// the rank announces nothing, collects nothing, writes nothing, and the
// others will time out on it. The snapshot precedes the self-mark so the
// crash lands in this round's newly-dead set on the crashed rank too: its
// process survives as a data source and must join the failover
// dissemination like everyone else.
func (c *call) markDead(round int) {
	f, ft := c.f, c.ft
	copy(ft.wasDead, ft.dead)
	if a := c.myAgg; a >= 0 && !ft.dead[a] && f.aggCrashedNow(round) {
		c.markAggDead(a)
		// Idle out the watchdog period the others are about to spend
		// detecting this corpse. Every live member's clock advances by
		// exactly one timeout per newly dead aggregator this round; a rank
		// that skips a wait (it knows its own role is dead) would otherwise
		// fall a full timeout behind, and its next-round watchdog deadlines
		// would expire before the survivors' announcements could arrive —
		// false suspicion of every live aggregator, from nothing but
		// bookkeeping skew.
		f.r.Compute(watchdogTimeout)
	}
}

// heartbeat is the resilient size agreement: live aggregators announce their
// round plan to every member, members collect the announcements under a
// watchdog, and annex obligations follow from the commonly known annex
// windows. [sync]
func (c *call) heartbeat(round int) {
	f, ft, comm := c.f, c.ft, c.f.comm
	me, ptag := comm.Rank(), f.planTag(round)
	if a := c.myAgg; a >= 0 && !ft.dead[a] {
		d := &c.main
		for src := 0; src < comm.Size(); src++ {
			if src != me {
				comm.Send(src, ptag, encPlan(d.lo, d.hi, d.want[src]))
			}
		}
		ft.aggSt[a], ft.aggEnd[a], ft.known[a] = d.lo, d.hi, true
	}
	clear(c.due)
	for a, cr := range f.aggs {
		if ft.dead[a] {
			continue
		}
		if cr == me {
			c.due[a] = c.main.want[me]
			continue
		}
		msg, _, ok := comm.RecvUntil(cr, ptag, watchdogTimeout)
		if !ok {
			c.markAggDead(a)
			f.note(&f.rstats.Detections, "detections")
			f.rstats.DetectSecs += watchdogTimeout
			continue
		}
		ft.aggSt[a], ft.aggEnd[a], c.due[a] = decPlan(msg)
		ft.known[a] = true
		perf.PutBuf(msg)
	}
	for i := range c.annexes {
		c.annexDue(i, round)
	}
}

// absorbDeaths re-partitions the remainders of the aggregators the round's
// agreement found newly dead. It reports false once the failover budget is
// exhausted and the call has degraded.
func (c *call) absorbDeaths(round int) bool {
	f, ft := c.f, c.ft
	var newly []int
	for a := range ft.dead {
		if ft.dead[a] && !ft.wasDead[a] {
			newly = append(newly, a)
		}
	}
	if len(newly) > 0 {
		t0 := f.r.Now()
		c.failover(newly, round)
		f.noteRecoverSpan(f.r.Now() - t0)
	}
	return !ft.degraded
}

// failover absorbs the newly dead aggregators' remainders. It runs on every
// rank with an identical dead set, so every decision below — owner election,
// annex bounds, the extended round count — is common knowledge without a
// word of agreement traffic. Only the clip dissemination communicates.
func (c *call) failover(newly []int, round int) {
	f, ft := c.f, c.ft
	comm, r := f.comm, f.r
	me := comm.Rank()

	ft.failovers += len(newly)
	for _, a := range newly {
		f.deadWorld[comm.WorldRankOf(f.aggs[a])] = true
	}
	if ft.failovers > maxFailovers {
		ft.degraded = true
		return
	}

	// Owners: the surviving aggregators, ascending. If none survive, elect
	// the lowest comm rank whose aggregator role is not dead.
	var owners []int
	for a, cr := range f.aggs {
		if !ft.dead[a] {
			owners = append(owners, cr)
		}
	}
	if len(owners) == 0 {
		deadRank := make(map[int]bool, len(f.aggs))
		for _, cr := range f.aggs {
			deadRank[cr] = true
		}
		for cr := 0; cr < comm.Size(); cr++ {
			if !deadRank[cr] {
				owners = []int{cr}
				break
			}
		}
		if len(owners) == 0 {
			// Every rank's aggregator role is dead (only possible when the
			// aggregator list spans the whole communicator).
			ft.degraded = true
			return
		}
		f.note(&f.rstats.Reelections, "reelections")
	}

	first := len(c.annexes)
	for _, a := range newly {
		// The dead aggregator finished rounds [0, round): its windows up to
		// st_loc + round*cb are durable. The remainder — or its whole file
		// domain if it never announced — is what the survivors absorb.
		lo, hi := c.fdLo[a], c.fdHi[a]
		if ft.known[a] {
			lo, hi = ft.aggSt[a]+int64(round)*c.cb, ft.aggEnd[a]
		}
		f.note(&f.rstats.Failovers, "failovers")
		if lo >= hi {
			continue
		}
		subLo, subHi := computeFDs(lo, hi, len(owners), f.fdStripe())
		for i, ocr := range owners {
			if subLo[i] >= subHi[i] {
				continue
			}
			x := &domain{lo: subLo[i], hi: subHi[i], start: round, annex: true}
			if ocr == me {
				x.others = make(map[int][]clip)
				x.win = make([][]clip, comm.Size())
				x.want = make([]int, comm.Size())
				x.buf = perf.GetBuf(int(c.cb))
				c.owned = append(c.owned, x)
			}
			c.annexes = append(c.annexes, x)
			c.streams = append(c.streams, stream{req: clipSegs(ft.segs, ft.pre, x.lo, x.hi)})
			c.owners = append(c.owners, ocr)
			c.due = append(c.due, 0)
			// Extend the round count so every annex window gets a round —
			// from the subdomain bounds, identically on every rank.
			c.ntimes = max(c.ntimes, round+int((x.hi-x.lo+c.cb-1)/c.cb))
		}
	}

	// Disseminate: every member sends its (possibly empty) clip list for
	// each fresh annex to that annex's owner; owners receive exactly one
	// message per member. Deterministic counts, ascending order, eager
	// sends before any receive — no deadlock, no wildcard.
	ctag := f.annexCtlTag(round)
	old := r.SetClass(mpi.ClassSync)
	for s := len(f.aggs) + first; s < len(c.streams); s++ {
		comm.Send(c.owners[s], ctag, encClips(c.streams[s].req))
	}
	for _, x := range c.annexes[first:] {
		if x.others == nil {
			continue // not mine
		}
		for src := 0; src < comm.Size(); src++ {
			msg, _ := comm.Recv(src, ctag)
			if len(msg) > 0 {
				x.others[src] = decClips(msg)
			}
			perf.PutBuf(msg)
		}
		// The round's agreement has already run: open the first window now.
		x.open(round, c.cb)
	}
	r.SetClass(old)
	for i := first; i < len(c.annexes); i++ {
		c.annexDue(i, round)
	}
}

// annexDue derives what this rank moves to annex i's owner this round. Annex
// windows are common knowledge, so the sizes agree by construction.
func (c *call) annexDue(i, round int) {
	w0, w1 := c.annexes[i].window(round, c.cb)
	s := len(c.f.aggs) + i
	c.due[s] = int(clipWindowBytes(c.streams[s].req, w0, w1))
}

// settle closes a resilient call: a degraded call rewrites all of this
// rank's data independently, and any staging loss the call surfaced is
// re-dumped.
func (c *call) settle() {
	f, ft := c.f, c.ft
	if ft.degraded {
		f.degraded = true
		f.note(&f.rstats.Degradations, "degradations")
		f.independent(true, ft.segs, ft.pre, c.data)
	}
	f.redumpLost(ft.segs, ft.pre, c.data)
}

// redumpLost repairs staging losses at the end of a collective write: if the
// backend can lose acknowledged-but-staged data (storage.LossReporter), each
// rank intersects the file's lost set with its own segments and rewrites
// exactly that — across ranks the owned sets partition the request, so every
// lost byte this collective touched is re-dumped exactly once, healing the
// tier's lost set as the writes land. Ranges lost from other files or other
// calls' requests are the drain barrier's to surface (workload-level
// recovery regenerates or re-reads them). Under a translated view the
// segments are logical, but the translator's physical map attributes each
// physical run to exactly one logical owner, so the intersect stays precise
// — partitioned groups re-dump only what they lost, same as the
// unpartitioned protocol.
func (f *File) redumpLost(segs []datatype.Segment, pre []int64, data []byte) {
	lr, ok := f.lf.(storage.LossReporter)
	if !ok {
		return
	}
	lost := lr.LostExtents(f.r)
	if len(lost) == 0 {
		return
	}
	redump := func(off, ln, pos int64) {
		for _, e := range storage.Intersect(lost, []storage.Extent{{Off: off, Len: ln}}) {
			p := pos + (e.Off - off)
			f.resilientWrite(e.Off, data[p:p+e.Len])
		}
	}
	for i, s := range segs {
		if f.xlate == nil {
			redump(s.Off, s.Len, pre[i])
			continue
		}
		pos := pre[i]
		for _, ph := range f.xlate.Phys(s.Off, s.Len) {
			redump(ph.Off, ph.Len, pos)
			pos += ph.Len
		}
	}
}

// noteRecoverSpan books one replanning span into the failover stats. The
// span runs from detection (the watchdog's return) to dissemination
// complete; the time-to-recover metric is the worst such span.
func (f *File) noteRecoverSpan(span float64) {
	f.rstats.RecoverSecs += span
	if span > f.rstats.TimeToRecover {
		f.rstats.TimeToRecover = span
	}
}

// resilientWrite writes through the backend's erroring path, absorbing
// transient budget exhaustion by re-issuing the whole (idempotent,
// all-or-nothing) operation; each failed pass has already advanced the clock
// past its attempts, so a bounded failure window always drains. A staging
// loss (a burst-buffer node died with this file's undrained extents) is
// likewise survivable: the tier has already flipped the failed node to
// write-through, so the immediate retry lands durably on the under-backend,
// and the extents lost from earlier calls are re-dumped at the end of the
// collective call (redumpLost).
func (f *File) resilientWrite(off int64, data []byte) {
	for {
		err := storage.TryWrite(f.r, f.lf, off, data)
		if err == nil {
			return
		}
		var sl *storage.StagingLostError
		if errors.As(err, &sl) {
			f.note(&f.rstats.Degradations, "degradations")
		}
	}
}

// independent moves this rank's own segments with no coordination, through
// the erroring Try path. It is the graceful-degradation rewrite — safe to
// apply mid-call, because collective rounds already written land the same
// bytes, so the rewrite is idempotent — and the resilient read: collective
// read scheduling assumes every aggregator serves, so under a plan that can
// kill one, reads choose correctness over coordination.
func (f *File) independent(write bool, segs []datatype.Segment, pre []int64, data []byte) {
	for i, s := range segs {
		buf := data[pre[i] : pre[i]+s.Len]
		phys := []datatype.Segment{s}
		if f.xlate != nil {
			phys = f.xlate.Phys(s.Off, s.Len)
		}
		for _, ph := range phys {
			if write {
				f.resilientWrite(ph.Off, buf[:ph.Len])
			} else {
				copy(buf, f.resilientRead(ph.Off, ph.Len))
			}
			buf = buf[ph.Len:]
		}
	}
}

// resilientRead mirrors resilientWrite for reads. A staging loss is fatal
// here: the reader holds no copy of the lost bytes, so retrying cannot make
// progress — the writer's re-dump (redumpLost, or the workload's drain-level
// recovery) must land before anyone reads the range, and a read that beats
// it is a real data-loss bug that must fail loudly.
func (f *File) resilientRead(off, n int64) []byte {
	for {
		data, err := storage.TryRead(f.r, f.lf, off, n)
		if err == nil {
			return data
		}
		var sl *storage.StagingLostError
		if errors.As(err, &sl) {
			panic(fmt.Sprintf("mpiio: read at %d overlaps staged data lost to a bb node failure and not yet re-dumped: %v", off, err))
		}
	}
}
