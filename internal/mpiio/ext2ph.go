package mpiio

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/nbio"
	"repro/internal/perf"
	"repro/internal/storage"
)

// The extended two-phase protocol (Thakur & Choudhary), as implemented by
// ROMIO's generic ADIO layer:
//
//  1. file range gathering  — allgather of each process's (st, end) offsets
//  2. file domain partitioning — the covered range is split evenly (stripe
//     aligned) across the I/O aggregators
//  3. request dissemination — alltoallv of per-aggregator request lists
//  4. interleaved phases of data exchange and file I/O — ntimes rounds,
//     each opening a cb_buffer-sized window per aggregator; every round is
//     synchronized by an agreement on transfer sizes
//
// Steps 1–3 and the per-round agreement are collective operations; the time
// spent in them is the "synchronization" of the paper's breakdown and the
// source of the collective wall.
//
// Every collective entry point — blocking or split, write or read, flat or
// two-level, healthy or resilient — is one call value driven through the
// one round loop in call.run (DESIGN.md §9, "Round driver"). What differs
// between them is chosen once, in File.begin, and recorded as fields of the
// call; the phases below branch on those fields only.

// clip is a physical extent plus the matching position in the caller's
// data buffer.
type clip struct {
	off, ln int64
	dataPos int64
}

// stream is this rank's request list inside one domain plus the cursor that
// walks it in offset order as the rounds consume it.
type stream struct {
	req  []clip
	seg  int
	used int64 // bytes consumed of req[seg]
}

// move carries the stream's next len(wire) bytes between the caller's buffer
// and a wire payload: out of user when gather (the write up-flow), into it
// otherwise (the read delivery).
func (s *stream) move(user, wire []byte, gather bool) {
	for len(wire) > 0 {
		if s.seg >= len(s.req) {
			panic("mpiio: round obligation exceeds request stream")
		}
		cl := s.req[s.seg]
		k := min(cl.ln-s.used, int64(len(wire)))
		u := user[cl.dataPos+s.used : cl.dataPos+s.used+k]
		if gather {
			copy(wire, u)
		} else {
			copy(u, wire)
		}
		wire = wire[k:]
		if s.used += k; s.used == cl.ln {
			s.seg++
			s.used = 0
		}
	}
}

// domain is a contiguous file range that one rank stages in a collective
// buffer and moves to or from storage one cb-sized window per round: an
// aggregator's file domain or, after a failover, a slice of a dead
// aggregator's remainder annexed by a survivor (recover.go). The bounds are
// common knowledge wherever the struct exists; everything from others down
// is the owner's staging state.
type domain struct {
	lo, hi int64 // touched range [lo, hi): st_loc and end_loc in ROMIO's terms
	start  int   // round of its first window
	annex  bool  // travels on the annex data tag

	others map[int][]clip     // per source comm rank: its extents in [lo, hi)
	win    [][]clip           // per source: others clipped to the round's window
	want   []int              // per source: bytes of win, what the round moves
	active int                // sources with want > 0
	w0, w1 int64              // the round's window
	buf    []byte             // staging buffer, origin w0
	dirty  []datatype.Segment // extents of buf the round touches
}

// window returns the domain's file window for the given round; rounds
// outside its own touched range are empty.
func (d *domain) window(round int, cb int64) (int64, int64) {
	if d.lo >= d.hi || round < d.start {
		return 0, 0
	}
	w0 := d.lo + int64(round-d.start)*cb
	w1 := min(w0+cb, d.hi)
	if w0 >= w1 {
		return 0, 0
	}
	return w0, w1
}

// open advances the owner's staging state to the given round: the window,
// every source's clips inside it, and how many bytes each will move.
func (d *domain) open(round int, cb int64) {
	d.w0, d.w1 = d.window(round, cb)
	clear(d.want)
	d.active = 0
	for src, cl := range d.others {
		c := clipWindowInto(d.win[src][:0], cl, d.w0, d.w1)
		d.win[src] = c
		if n := clipBytes(c); n > 0 {
			d.want[src] = int(n)
			d.active++
		}
	}
}

// extentsIn appends the pieces of every source's request inside [w0, w1) —
// from the plan alone, with no communication. That locality is what lets a
// pipelined read prefetch round k+1's window before that round's size
// agreement confirms it: the confirmation is redundant for the owner's own
// read set.
func (d *domain) extentsIn(dst []datatype.Segment, w0, w1 int64) []datatype.Segment {
	for _, cl := range d.others {
		for _, c := range cl {
			if o, e := max(c.off, w0), min(c.off+c.ln, w1); o < e {
				dst = append(dst, datatype.Segment{Off: o, Len: e - o})
			}
		}
	}
	return dst
}

const maxI64 = int64(^uint64(0) >> 1)

// computeFDs splits [minSt, maxEnd) into nag file domains, optionally
// aligning boundaries to the stripe size (stripe > 0). Domains are
// half-open, ordered, disjoint, and exactly tile the range; trailing
// domains may be empty when there are more aggregators than stripes.
func computeFDs(minSt, maxEnd int64, nag int, stripe int64) (fdLo, fdHi []int64) {
	base := minSt
	span := maxEnd - base
	fdSize := (span + int64(nag) - 1) / int64(nag)
	if stripe > 0 {
		base = (minSt / stripe) * stripe
		span = maxEnd - base
		fdSize = (span + int64(nag) - 1) / int64(nag)
		fdSize = (fdSize + stripe - 1) / stripe * stripe
	}
	fdLo = make([]int64, nag)
	fdHi = make([]int64, nag)
	for a := 0; a < nag; a++ {
		lo := base + int64(a)*fdSize
		hi := lo + fdSize
		if lo < minSt {
			lo = minSt
		}
		if hi > maxEnd {
			hi = maxEnd
		}
		if hi < lo {
			hi = lo
		}
		fdLo[a], fdHi[a] = lo, hi
	}
	return fdLo, fdHi
}

// control is where a call's small control collectives run: the communicator
// itself, or the node hierarchy standing in for it on the two-level path.
type control interface {
	AllgatherInt64s(vals []int64) [][]int64
	AllreduceInt64(vals []int64, op mpi.Op) []int64
}

// call is the state of one collective operation, from the plan through the
// last round; a split collective's request carries it from Begin to End.
type call struct {
	f *File

	// How the call runs, chosen once in File.begin.
	write     bool       // direction
	pipelined bool       // split collective: async I/O on two staging buffers
	hier      *hierState // exchange topology: nil is flat, else through node leaders
	ft        *ftState   // size agreement: nil is healthy, else heartbeats with failover
	ctl       control

	data []byte // write: the caller's bytes; read: the result

	// The plan (protocol steps 1–3). streams, owners and due run in
	// parallel: one entry per aggregator, then one per annex.
	fdLo, fdHi []int64  // per aggregator: file domain
	streams    []stream // my requests inside each domain
	owners     []int    // comm rank staging each domain
	due        []int    // bytes this round moves between me and each owner
	cb         int64
	ntimes     int

	myAgg   int       // my index in the aggregator list, or -1
	main    domain    // my own file domain (aggregators only)
	annexes []*domain // every annex, in creation order (bounds only unless owned)
	owned   []*domain // the domains I stage: main while my role lives, then my annexes

	want, owe []int // dense agreement: bytes per source I expect / per owner I owe
	tag       int   // the round's data tag

	stage [2][]byte        // staging buffers: one blocking, two pipelined
	ioreq [2]*nbio.Request // pipelined: the I/O tail last issued on each buffer

	pieces []piece // flush/fill scratch, reused across rounds
}

// begin starts a collective call: it chooses how the call runs, plans it,
// and drives its rounds. Blocking entry points finish it on the spot; split
// ones hand it to a request (split.go).
//
// This is the one place the mode is decided. Direction and pipelining are
// the entry point's; the exchange topology was fixed at open (f.hier); the
// size agreement follows from the fault plan. Two combinations fall back
// here rather than run as themselves: a call that needs the resilient
// agreement never pipelines (the storage seam has no asynchronous Try call
// to flush through) and never runs two-level (open does not build the
// hierarchy under such a plan — failover re-elects aggregators mid-call,
// which would need leader-level heartbeats). Resilient reads do not run
// rounds at all: collective read scheduling assumes every aggregator
// serves, so they fall back to independent I/O.
func (f *File) begin(write, pipelined bool, logOff int64, data []byte) *call {
	f.seq++
	c := &call{f: f, write: write, pipelined: pipelined, data: data, ctl: f.comm, myAgg: f.aggIndex()}
	segs := f.view.Map(logOff, int64(len(data)))
	pre := prefixes(segs)
	if f.hier != nil {
		c.hier = &hierState{fileHier: f.hier}
		c.ctl = f.hier.h
	}
	if f.recoveryOn() {
		c.pipelined = false
		if !write || f.degraded {
			// A degraded handle's collective machinery stays retired
			// (file.go); its writes go out independently too.
			f.independent(write, segs, pre, data)
			return c
		}
		c.ft = newFTState(f, segs, pre)
	}
	c.plan(segs, pre)
	if c.ft == nil {
		c.run()
	} else {
		if c.carryDead() {
			c.run()
		}
		c.settle()
	}
	return c
}

// run is the round loop: every round agrees on transfer sizes, then moves
// one window per domain — exchange then storage for a write, storage then
// exchange for a read.
func (c *call) run() {
	f := c.f
	for round := 0; round < c.ntimes; round++ {
		c.tag = f.dataTag(round)
		f.roundStall()
		c.agree(round)
		if c.ft != nil && !c.absorbDeaths(round) {
			return // failover budget exhausted; settle rewrites independently
		}
		if c.write {
			c.exchange(round)
			c.flushRound(round)
		} else {
			c.fillRound(round)
			c.serve(round)
			if !c.pipelined || round < c.ntimes-1 {
				c.deliver(round)
			}
		}
	}
}

// finish completes the call: a pipelined read's final delivery was left
// pending so compute after Begin overlaps it (tag and due still hold that
// round's state), and whatever I/O tails are still in flight are waited out.
func (c *call) finish() {
	if c.pipelined && !c.write && c.ntimes > 0 {
		c.deliver(c.ntimes - 1)
	}
	nbio.Waitall(c.ioreq[:]...)
	c.f.absorbProf()
}

// release returns the call's staging buffers to the arena.
func (c *call) release() {
	for _, b := range c.stage {
		if b != nil {
			perf.PutBuf(b)
		}
	}
	for _, x := range c.annexes {
		if x.buf != nil {
			perf.PutBuf(x.buf)
		}
	}
}

// plan runs protocol steps 1–3 for this rank's physical segments.
func (c *call) plan(segs []datatype.Segment, pre []int64) {
	f, r, comm := c.f, c.f.r, c.f.comm
	c.cb = f.hints.cb()

	// Step 1: gather every process's file range. [sync]
	st, end := maxI64, int64(0)
	if len(segs) > 0 {
		st, end = segs[0].Off, segs[len(segs)-1].End()
	}
	old := r.SetClass(mpi.ClassSync)
	ranges := c.ctl.AllgatherInt64s([]int64{st, end})
	r.SetClass(old)

	minSt, maxEnd := maxI64, int64(0)
	for _, rg := range ranges {
		minSt = min(minSt, rg[0])
		maxEnd = max(maxEnd, rg[1])
	}
	if minSt >= maxEnd {
		return // nobody has data
	}

	// Step 2: partition [minSt, maxEnd) into file domains.
	nag := len(f.aggs)
	c.fdLo, c.fdHi = computeFDs(minSt, maxEnd, nag, f.fdStripe())

	// My requests per aggregator (ADIOI_Calc_my_req).
	c.streams = make([]stream, nag)
	for a := range c.streams {
		c.streams[a].req = clipSegs(segs, pre, c.fdLo[a], c.fdHi[a])
	}
	c.owners = f.aggs[:nag:nag]
	ints := make([]int, 2*comm.Size()+nag)
	c.want, c.owe, c.due = ints[:comm.Size()], ints[comm.Size():2*comm.Size()], ints[2*comm.Size():]

	// Step 3: disseminate request lists to aggregators
	// (ADIOI_Calc_others_req). Two-level mode funnels them through node
	// leaders instead, so only merged lists cross the NIC (hier.go). [sync]
	d := &c.main
	if c.hier != nil {
		c.hierDisseminate()
	} else {
		send := make([][]byte, comm.Size())
		for a, cr := range f.aggs {
			if len(c.streams[a].req) > 0 {
				send[cr] = encClips(c.streams[a].req)
			}
		}
		old = r.SetClass(mpi.ClassSync)
		got := comm.Alltoallv(send, f.hints.AlltoallvAlgo)
		r.SetClass(old)
		if c.myAgg >= 0 {
			d.others = make(map[int][]clip)
		}
		// The request lists were arena-encoded by encClips; once decoded this
		// rank owns every received block (ownership transfer).
		for src, b := range got {
			if len(b) > 0 {
				if c.myAgg >= 0 {
					d.others[src] = decClips(b)
				}
				perf.PutBuf(b)
			}
		}
	}

	// Round count: each aggregator covers its *touched* range in
	// collective-buffer steps; the global round count is agreed via
	// allreduce(max). [sync]
	local := int64(0)
	if c.myAgg >= 0 {
		d.want = c.want
		d.win = make([][]clip, comm.Size())
		d.lo, d.hi = maxI64, 0
		for _, cl := range d.others {
			for _, cp := range cl {
				d.lo = min(d.lo, cp.off)
				d.hi = max(d.hi, cp.off+cp.ln)
			}
		}
		if d.lo < d.hi {
			local = (d.hi - d.lo + c.cb - 1) / c.cb
		}
		c.stage[0] = perf.GetBuf(int(c.cb))
		if c.pipelined {
			c.stage[1] = perf.GetBuf(int(c.cb))
		}
		d.buf = c.stage[0]
		c.owned = append(c.owned, d)
	}
	old = r.SetClass(mpi.ClassSync)
	c.ntimes = int(c.ctl.AllreduceInt64([]int64{local}, mpi.OpMax)[0])
	r.SetClass(old)
}

// fdStripe returns the stripe size file-domain boundaries align to, as
// tuned Lustre ADIOs do.
func (f *File) fdStripe() int64 { return f.lf.Stripe().Size }

// roundStall applies the fault plan's per-round compute noise, if any,
// before a round's size agreement: with the configured probability the rank
// stalls (OS noise, a page fault storm, a heavy-tail event) and every other
// member of the synchronization group ends up waiting for it. The draw
// comes from the rank's proc-local seeded RNG, so runs under a plan are
// bit-identical to each other.
func (f *File) roundStall() {
	if f.fault == nil {
		return
	}
	if d := f.fault.RoundStall(f.r.WorldRank(), f.r.P.Rand()); d > 0 {
		f.r.Compute(d)
	}
}

// aggIndex returns this rank's position in the aggregator list, or -1.
func (f *File) aggIndex() int {
	for i, cr := range f.aggs {
		if cr == f.comm.Rank() {
			return i
		}
	}
	return -1
}

// dataTag derives a per-call, per-round user tag.
func (f *File) dataTag(round int) int {
	return 100 + (f.seq%61)*1024 + round%1024
}

// tagOf returns the round's data tag for a domain: annex traffic travels on
// its own tag so it can never be matched against a main-domain receive.
func (c *call) tagOf(annex bool, round int) int {
	if annex {
		return c.f.annexDataTag(round)
	}
	return c.tag
}

// WriteAtAll is a collective write: all communicator members must call it.
// logOff and data are interpreted through each rank's file view.
func (f *File) WriteAtAll(logOff int64, data []byte) {
	c := f.begin(true, false, logOff, data)
	c.finish()
	c.release()
}

// ReadAtAll is a collective read of n logical bytes at logOff through each
// rank's view. All communicator members must call it.
func (f *File) ReadAtAll(logOff, n int64) []byte {
	c := f.begin(false, false, logOff, make([]byte, n))
	c.finish()
	c.release()
	return c.data
}

// agree is the round's synchronization point: every owner opens its window,
// and the call's agreement strategy tells every rank how many bytes it moves
// to or from each owner this round. [sync]
func (c *call) agree(round int) {
	f, r := c.f, c.f.r
	if c.ft != nil {
		c.markDead(round)
	}
	for _, d := range c.owned {
		d.open(round, c.cb)
	}
	t0 := r.Now()
	old := r.SetClass(mpi.ClassSync)
	switch {
	case c.ft != nil:
		// Heartbeats with a watchdog: a dead aggregator is observable
		// (recover.go).
		c.heartbeat(round)
	case c.hier != nil:
		// Two-level: leaders exchange round windows, everyone derives its
		// obligations locally — no comm-wide alltoall (hier.go).
		c.hierWindows()
	default:
		// The dense alltoall: each aggregator announces how much it expects
		// from (or will deliver to) every source.
		f.comm.AlltoallIntsInto(c.owe, c.want)
		for i, cr := range c.owners {
			c.due[i] = c.owe[cr]
		}
	}
	r.SetClass(old)
	f.traceRound("round-sync", t0, r.Now(), round)
}

// exchange is a write round's data movement: every rank sends what it owes
// and each owner receives and scatters the round's incoming data into its
// staging buffer. A pipelined call first waits out the write that last used
// the buffer it is about to refill — whatever tail the intervening rounds'
// agreement and exchange did not absorb is exposed there. [exchange]
func (c *call) exchange(round int) {
	f, r, comm := c.f, c.f.r, c.f.comm
	if c.myAgg >= 0 {
		c.main.buf = c.claim(round)
	}
	t0 := r.Now()
	old := r.SetClass(mpi.ClassExchange)
	if c.hier != nil {
		c.hierSendUp() // member -> leader -> aggregator (hier.go)
	} else {
		for i := range c.streams {
			if n := c.due[i]; n > 0 {
				payload := perf.GetBuf(n) // released by the owner after scattering
				c.streams[i].move(c.data, payload, true)
				comm.SendWeighted(c.owners[i], c.tagOf(i >= len(f.aggs), round), payload, scaled(n, f.scale))
			}
		}
	}
	for _, d := range c.owned {
		d.dirty = d.dirty[:0]
		tag, src := c.tagOf(d.annex, round), -1
		for n := d.active; n > 0; n-- {
			var msg []byte
			if c.ft == nil {
				var st mpi.Status
				msg, st = comm.Recv(mpi.AnySource, tag)
				src = st.Source
			} else {
				// Resilient rounds receive directed, in ascending source
				// order: deterministic counts, no wildcard.
				for src++; d.want[src] == 0; src++ {
				}
				msg, _ = comm.Recv(src, tag)
			}
			if d.want[src] != len(msg) {
				panic(fmt.Sprintf("mpiio: round %d expected %d bytes from %d, got %d",
					round, d.want[src], src, len(msg)))
			}
			var pos int64
			for _, cp := range d.win[src] {
				copy(d.buf[cp.off-d.w0:cp.off-d.w0+cp.ln], msg[pos:pos+cp.ln])
				d.dirty = append(d.dirty, datatype.Segment{Off: cp.off, Len: cp.ln})
				pos += cp.ln
			}
			perf.PutBuf(msg)
		}
	}
	r.SetClass(old)
	f.traceRound("round-exchange", t0, r.Now(), round)
}

// claim returns the staging buffer the round uses, first waiting out the I/O
// request that last used it. Blocking calls have one buffer and no requests.
func (c *call) claim(round int) []byte {
	b := 0
	if c.pipelined {
		b = round % 2
	}
	if q := c.ioreq[b]; q != nil {
		q.Wait()
		c.ioreq[b] = nil
	}
	return c.stage[b]
}

// flushRound writes every owned domain's dirty extents. Non-aggregators of
// a healthy call have nothing to write and emit no span; the resilient loop,
// where any rank may come to own an annex, emits one on every rank. [io]
func (c *call) flushRound(round int) {
	if len(c.owned) == 0 && c.ft == nil {
		return
	}
	f, r := c.f, c.f.r
	t0 := r.Now()
	done := t0
	for _, d := range c.owned {
		done = max(done, c.flush(d))
	}
	f.traceRound("round-io", t0, done, round)
	if c.pipelined {
		// Not charged here: the tail is accounted, hidden or exposed, when
		// the staging buffer is next claimed or at End.
		c.ioreq[round%2] = f.tailReq(done)
	}
}

// fillRound brings the round's window into the owner's staging buffer. A
// blocking call reads it now and pays for it; a pipelined call keeps one
// window of read-ahead in flight in the idle buffer — issued before this
// round is served, so the read overlaps this round's serve and delivery and
// the next round's agreement — and waits out only the current window's tail.
// [io]
func (c *call) fillRound(round int) {
	if c.myAgg < 0 {
		return
	}
	ahead := 0
	if c.pipelined {
		ahead = 1
	}
	// Windows up to round+ahead must have been issued; round 0 primes the
	// pipe, every later round issues exactly one.
	k := round + ahead
	if round == 0 {
		k = 0
	}
	for ; k <= round+ahead && k < c.ntimes; k++ {
		b := k % (ahead + 1)
		c.ioreq[b] = c.f.tailReq(c.fill(&c.main, k, c.stage[b]))
	}
	c.main.buf = c.claim(round)
}

// piece is one slice of a staging buffer destined for (or sourced from) a
// physical file offset.
type piece struct {
	off  int64
	data []byte
}

// runs is the preparation flush and fill share: merge the round's dirty
// extents, translate them to physical pieces when an intermediate view is
// active, and order the pieces by physical offset so adjacent ones (often
// from neighboring processes' joined segments) coalesce into single storage
// calls. buf is the staging buffer the extents index, with origin w0.
func (c *call) runs(dirty []datatype.Segment, buf []byte, w0 int64) []piece {
	ps := c.pieces[:0]
	for _, ext := range mergeOverlapsInPlace(dirty) {
		pos := ext.Off - w0
		if c.f.xlate == nil {
			ps = append(ps, piece{ext.Off, buf[pos : pos+ext.Len]})
			continue
		}
		for _, ph := range c.f.xlate.Phys(ext.Off, ext.Len) {
			ps = append(ps, piece{ph.Off, buf[pos : pos+ph.Len]})
			pos += ph.Len
		}
	}
	if c.f.xlate != nil {
		// Pieces never overlap: the logical extents were already merged and
		// the translation is injective.
		sort.Slice(ps, func(i, j int) bool { return ps[i].off < ps[j].off })
	}
	c.pieces = ps
	return ps
}

// nextRun returns the end of the maximal run of physically adjacent pieces
// starting at ps[i], and the run's length in bytes.
func nextRun(ps []piece, i int) (j int, n int64) {
	n = int64(len(ps[i].data))
	for j = i + 1; j < len(ps) && ps[i].off+n == ps[j].off; j++ {
		n += int64(len(ps[j].data))
	}
	return j, n
}

// vectored reports whether the call's rounds go to storage as one list-I/O
// request each — one round-trip per touched target instead of an RPC per
// extent (DESIGN.md §14). The resilient loop stays scalar even on list-I/O
// backends: it retries and re-dumps extent by extent.
func (c *call) vectored() bool { return c.f.vec && c.ft == nil }

// submit issues the handle's request: a pipelined call returns its
// completion time for the caller to account; a blocking one charges the
// wait and returns the advanced clock.
func (c *call) submit() float64 {
	r := c.f.r
	done := storage.Must(r, c.f.lf, &c.f.req)
	if c.pipelined {
		return done
	}
	r.ChargeIO(done - r.Now())
	return r.Now()
}

// flush writes a domain's dirty extents from its staging buffer and returns
// the virtual time the data is safe: now for a blocking call, which charges
// the wait as it goes; the slowest write's completion for a pipelined one,
// which books the same resources and charges nothing.
func (c *call) flush(d *domain) float64 {
	f, r := c.f, c.f.r
	ps := c.runs(d.dirty, d.buf, d.w0)
	done := r.Now()
	q := f.request(true, 0)
	for i, j := 0, 0; i < len(ps); i = j {
		var n int64
		j, n = nextRun(ps, i)
		data := ps[i].data
		if j > i+1 {
			data = make([]byte, 0, n)
			for _, p := range ps[i:j] {
				data = append(data, p.data...)
			}
		}
		if c.ft != nil {
			f.resilientWrite(ps[i].off, data)
			continue
		}
		q.Exts = append(q.Exts, storage.Extent{Off: ps[i].off, Len: n})
		q.Bufs = append(q.Bufs, data)
		if !c.vectored() {
			done = max(done, c.submit())
			q.Exts, q.Bufs = q.Exts[:0], q.Bufs[:0]
		}
	}
	if len(q.Exts) > 0 {
		done = max(done, c.submit())
	}
	return max(done, r.Now())
}

// fill reads the union of the extents requested inside the given round's
// window into buf (whose origin is that window's own w0), and returns the
// virtual time the data is there — see flush for the blocking/pipelined
// split. The read set comes from the plan alone, so a pipelined call can
// fill a window before that round's agreement.
func (c *call) fill(d *domain, round int, buf []byte) float64 {
	f, r := c.f, c.f.r
	t0 := r.Now()
	w0, w1 := d.window(round, c.cb)
	d.dirty = d.extentsIn(d.dirty[:0], w0, w1)
	ps := c.runs(d.dirty, buf, w0)
	done := t0
	q := f.request(false, 0)
	for i, j := 0, 0; i < len(ps); i = j {
		var n int64
		j, n = nextRun(ps, i)
		q.Exts = append(q.Exts, storage.Extent{Off: ps[i].off, Len: n})
		if !c.vectored() {
			done = max(done, c.submit())
			q.Exts = q.Exts[:0]
		}
	}
	if len(q.Exts) > 0 {
		done = max(done, c.submit())
	}
	// Scatter: the pieces, in order, consume the runs' bytes in order.
	run, pos := 0, 0
	for _, p := range ps {
		for len(p.data) > 0 && pos == len(q.Bufs[run]) {
			run, pos = run+1, 0
		}
		pos += copy(p.data, q.Bufs[run][pos:])
	}
	done = max(done, r.Now())
	f.traceRound("round-io", t0, done, round)
	return done
}

// serve sends each requester its pieces of the staging buffer. [exchange]
func (c *call) serve(round int) {
	if c.myAgg < 0 {
		return
	}
	f, r, d := c.f, c.f.r, &c.main
	t0 := r.Now()
	old := r.SetClass(mpi.ClassExchange)
	for src, n := range d.want {
		if n == 0 {
			continue
		}
		payload := perf.GetBuf(n)[:0] // released by the receiver
		for _, cp := range d.win[src] {
			payload = append(payload, d.buf[cp.off-d.w0:cp.off-d.w0+cp.ln]...)
		}
		f.comm.SendWeighted(src, c.tag, payload, scaled(n, f.scale))
	}
	r.SetClass(old)
	f.traceRound("round-exchange", t0, r.Now(), round)
}

// deliver receives my pieces and scatters them into the output buffer
// through the request streams. [exchange]
func (c *call) deliver(round int) {
	f, r := c.f, c.f.r
	t0 := r.Now()
	old := r.SetClass(mpi.ClassExchange)
	if c.hier != nil {
		c.hierRecvDown() // aggregator -> leader -> member (hier.go)
	} else {
		for i, cr := range c.owners {
			if c.due[i] == 0 {
				continue
			}
			msg, _ := f.comm.Recv(cr, c.tag)
			c.streams[i].move(c.data, msg, false)
			perf.PutBuf(msg)
		}
	}
	r.SetClass(old)
	f.traceRound("round-exchange", t0, r.Now(), round)
}

func scaled(n int, scale float64) int {
	if scale <= 1 {
		return n
	}
	return int(float64(n) * scale)
}

func prefixes(segs []datatype.Segment) []int64 {
	pre := make([]int64, len(segs))
	var n int64
	for i, s := range segs {
		pre[i] = n
		n += s.Len
	}
	return pre
}

// clipSegs intersects sorted segments with [lo, hi), carrying data
// positions along.
func clipSegs(segs []datatype.Segment, pre []int64, lo, hi int64) []clip {
	var out []clip
	for i, s := range segs {
		if s.End() <= lo || s.Off >= hi {
			continue
		}
		o, e := s.Off, s.End()
		if o < lo {
			o = lo
		}
		if e > hi {
			e = hi
		}
		out = append(out, clip{off: o, ln: e - o, dataPos: pre[i] + (o - s.Off)})
	}
	return out
}

// clipWindowInto appends the intersection of clips (sorted by off) with
// [lo, hi) to dst; the round loop passes a recycled backing array (dst[:0])
// so steady-state rounds allocate nothing.
func clipWindowInto(dst, cl []clip, lo, hi int64) []clip {
	for _, c := range cl {
		if c.off+c.ln <= lo || c.off >= hi {
			continue
		}
		o, e := c.off, c.off+c.ln
		if o < lo {
			o = lo
		}
		if e > hi {
			e = hi
		}
		dst = append(dst, clip{off: o, ln: e - o, dataPos: c.dataPos + (o - c.off)})
	}
	return dst
}

func clipBytes(cl []clip) int64 {
	var n int64
	for _, c := range cl {
		n += c.ln
	}
	return n
}

// mergeOverlapsInPlace coalesces possibly-overlapping extents (several
// readers may request the same bytes): segs is reordered and its prefix
// holds the result — sorted, disjoint, covering exactly the union, whatever
// the input order.
func mergeOverlapsInPlace(segs []datatype.Segment) []datatype.Segment {
	if len(segs) == 0 {
		return nil
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Off < segs[j].Off })
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if s.Off <= last.End() {
			if s.End() > last.End() {
				last.Len = s.End() - last.Off
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// encClips encodes a request list into an arena buffer; the consumer
// releases it with perf.PutBuf once decoded (plan does).
func encClips(cl []clip) []byte {
	out := perf.GetBuf(16 * len(cl))
	for i, c := range cl {
		binary.LittleEndian.PutUint64(out[16*i:], uint64(c.off))
		binary.LittleEndian.PutUint64(out[16*i+8:], uint64(c.ln))
	}
	return out
}

func decClips(b []byte) []clip {
	cl := make([]clip, len(b)/16)
	for i := range cl {
		cl[i].off = int64(binary.LittleEndian.Uint64(b[16*i:]))
		cl[i].ln = int64(binary.LittleEndian.Uint64(b[16*i+8:]))
	}
	return cl
}
