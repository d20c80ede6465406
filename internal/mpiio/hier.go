package mpiio

import (
	"encoding/binary"

	"repro/internal/mpi"
	"repro/internal/perf"
)

// Two-level (intra-node aggregated) collective I/O: the node-leader exchange
// topology of the round driver (ext2ph.go).
//
// The flat ext2ph protocol has every PE talk to every aggregator across the
// NIC: the request alltoallv, the per-round dense size alltoall, and one
// data message per (PE, aggregator) pair per round. On a fat node that is
// PEsPerNode times more cross-NIC traffic than necessary — the PEs of one
// node collectively hold one contiguous-ish slab of the request stream.
// With Hints.IntraNode on, PEs first merge into their node leader over
// shared memory and only leaders cross the interconnect:
//
//   - dissemination: members gather their per-aggregator request lists at
//     the leader (intra, memory-priced); the leader concatenates them in
//     member order and ships one merged list per aggregator (inter). The
//     aggregator's view is unchanged in content — the same clips arrive,
//     keyed by the sending node's leader — so file domains, st_loc/end_loc,
//     round count, and therefore all file bytes and I/O times are identical
//     to the flat path.
//   - per-round agreement: the dense comm-wide size alltoall is replaced by
//     a leaders-only exchange of the aggregators' round windows; every rank
//     then derives its own obligations locally (clipWindowBytes over its
//     request lists — consistent by construction, since the aggregator's
//     expectation is the same function of the same merged lists).
//   - data exchange: a member sends ONE message to its leader per round
//     (its per-aggregator pieces concatenated in aggregator order); the
//     leader reassembles per-aggregator payloads in member-major order —
//     exactly the order of the merged request lists — and crosses the NIC
//     once per aggregator. Reads run the same tree in reverse.
//
// The viability rule keeping all of this consistent: every aggregator must
// be its node's leader (node-minimal comm rank). The default aggregator
// selection — first rank of each distinct node — satisfies it by
// construction; explicit AggregatorList hints that violate it fall back to
// the flat path at open, as does any crash-carrying fault plan.

// fileHier is the per-file two-level state: the communicator hierarchy and
// the aggregator-to-node map, both fixed at open.
type fileHier struct {
	h       *mpi.Hierarchy
	aggNode []int // aggregator index -> node index in h.Layout
}

// hierViable reports whether the two-level path can run: every aggregator
// comm rank leads its node. Aggregators are distinct, so this also bounds
// them to one per node — which is what lets a round window be published as
// "this node's window" by its leader.
func hierViable(lay mpi.NodeLayout, aggs []int) bool {
	for _, cr := range aggs {
		if !lay.IsLeader(cr) {
			return false
		}
	}
	return true
}

// hierState is one call's two-level scratch.
type hierState struct {
	*fileHier
	// memberReq (leaders only) holds each intra member's request list per
	// aggregator, decoded at dissemination; offsets/lengths only (that is
	// all the leader needs: round-splitting byte counts and merge order).
	memberReq [][][]clip
	memOwe    [][]int // leaders: per member, per aggregator bytes this round
}

// hierDisseminate is the two-level form of protocol step 3: requests gather
// at the node leader over memory and only merged per-aggregator lists cross
// the NIC. Fills main.others on aggregators (keyed by leader comm rank, the
// message source the round loop will see). [sync]
func (c *call) hierDisseminate() {
	f, r, hp, hh := c.f, c.f.r, c.hier, c.hier.h
	nag := len(f.aggs)

	old := r.SetClass(mpi.ClassSync)
	blobs := hh.Intra.Gather(0, encReqSet(c.streams))
	if hh.IsLeader() {
		hp.memberReq = make([][][]clip, len(blobs))
		hp.memOwe = make([][]int, len(blobs))
		for m, b := range blobs {
			hp.memberReq[m] = decReqSet(b, nag)
			hp.memOwe[m] = make([]int, nag)
			perf.PutBuf(b)
		}
		// Merge member lists per aggregator — concatenation in member order,
		// never re-sorted: the round loop's payload assembly counts on the
		// merged list and the data stream sharing one member-major order.
		send := make([][]byte, hh.Inter.Size())
		for a := 0; a < nag; a++ {
			var merged []clip
			for _, mr := range hp.memberReq {
				merged = append(merged, mr[a]...)
			}
			if len(merged) > 0 {
				send[hp.aggNode[a]] = encClips(merged)
			}
		}
		got := hh.Inter.Alltoallv(send, f.hints.AlltoallvAlgo)
		if c.myAgg >= 0 {
			c.main.others = make(map[int][]clip)
		}
		for node, b := range got {
			if len(b) > 0 {
				if c.myAgg >= 0 {
					c.main.others[hh.Layout.Leaders[node]] = decClips(b)
				}
				perf.PutBuf(b)
			}
		}
	}
	r.SetClass(old)
}

// hierWindows is the round's two-level agreement: leaders exchange their
// node's aggregator window (zero when the node hosts none) and fan the
// table out node-locally; every rank then computes what it moves to or from
// each aggregator without any comm-wide collective. [sync]
func (c *call) hierWindows() {
	hp, hh := c.hier, c.hier.h
	var lv []int64
	if hh.IsLeader() {
		lv = []int64{c.main.w0, c.main.w1} // zero on a leader that is no aggregator
	}
	tab := hh.ExchangeLeaderInt64s(lv)
	for a := range c.due {
		win := tab[hp.aggNode[a]]
		c.due[a] = int(clipWindowBytes(c.streams[a].req, win[0], win[1]))
		for m, mr := range hp.memberReq {
			hp.memOwe[m][a] = int(clipWindowBytes(mr[a], win[0], win[1]))
		}
	}
}

// hierSendUp is the write exchange's up-flow: every rank drains its streams
// into one member payload (per-aggregator pieces in aggregator order) and
// hands it to its leader over memory; leaders reassemble per-aggregator
// payloads in member-major order and cross the NIC once per aggregator.
// The owner-side receive/scatter in exchange is unchanged — it sees the same
// byte streams as the flat path, just from fewer sources. [exchange]
func (c *call) hierSendUp() {
	f, hp, hh := c.f, c.hier, c.hier.h
	var mine []byte
	if total := sum(c.due); total > 0 {
		mine = perf.GetBuf(total)
		pos := 0
		for a, n := range c.due {
			c.streams[a].move(c.data, mine[pos:pos+n], true)
			pos += n
		}
	}
	if !hh.IsLeader() {
		if mine != nil {
			hh.Intra.SendWeighted(0, c.tag, mine, scaled(len(mine), f.scale))
		}
		return
	}
	msgs := make([][]byte, hh.Intra.Size())
	msgs[0] = mine // the leader is its own member 0
	for m := 1; m < hh.Intra.Size(); m++ {
		if sum(hp.memOwe[m]) > 0 {
			msgs[m], _ = hh.Intra.Recv(m, c.tag)
		}
	}
	pos := make([]int, len(msgs))
	for a, cr := range f.aggs {
		n := 0
		for m := range msgs {
			n += hp.memOwe[m][a]
		}
		if n == 0 {
			continue
		}
		payload := perf.GetBuf(n)[:0]
		for m, msg := range msgs {
			if k := hp.memOwe[m][a]; k > 0 {
				payload = append(payload, msg[pos[m]:pos[m]+k]...)
				pos[m] += k
			}
		}
		f.comm.SendWeighted(cr, c.tag, payload, scaled(n, f.scale))
	}
	for _, msg := range msgs {
		if msg != nil {
			perf.PutBuf(msg)
		}
	}
}

// hierRecvDown is the read exchange's down-flow, hierSendUp in reverse: the
// leader receives each aggregator's merged delivery for its node, splits it
// per member by the locally known byte counts, and fans out one message per
// member over memory; members scatter their piece through their own request
// streams. [exchange]
func (c *call) hierRecvDown() {
	f, hp, hh := c.f, c.hier, c.hier.h
	if !hh.IsLeader() {
		if sum(c.due) > 0 {
			msg, _ := hh.Intra.Recv(0, c.tag)
			c.hierPlace(msg)
		}
		return
	}
	nm := hh.Intra.Size()
	parts := make([][]byte, nm)
	for m := 0; m < nm; m++ {
		if t := sum(hp.memOwe[m]); t > 0 {
			parts[m] = perf.GetBuf(t)[:0]
		}
	}
	for a, cr := range f.aggs {
		n := 0
		for m := 0; m < nm; m++ {
			n += hp.memOwe[m][a]
		}
		if n == 0 {
			continue
		}
		msg, _ := f.comm.Recv(cr, c.tag)
		pos := 0
		for m := 0; m < nm; m++ {
			if k := hp.memOwe[m][a]; k > 0 {
				parts[m] = append(parts[m], msg[pos:pos+k]...)
				pos += k
			}
		}
		perf.PutBuf(msg) // arena-built by serve
	}
	for m := 1; m < nm; m++ {
		if parts[m] != nil {
			hh.Intra.SendWeighted(m, c.tag, parts[m], scaled(len(parts[m]), f.scale))
		}
	}
	if parts[0] != nil {
		c.hierPlace(parts[0])
	}
}

// hierPlace scatters a member's round delivery (per-aggregator pieces in
// aggregator order) into the output buffer through the request streams and
// releases it.
func (c *call) hierPlace(msg []byte) {
	pos := 0
	for a, k := range c.due {
		c.streams[a].move(c.data, msg[pos:pos+k], false)
		pos += k
	}
	perf.PutBuf(msg)
}

func sum(v []int) int {
	n := 0
	for _, x := range v {
		n += x
	}
	return n
}

// clipWindowBytes returns the byte count of cl intersected with [lo, hi) —
// clipBytes of the clipped list without materializing it. Every obligation a
// rank derives locally (two-level rounds, annex windows) goes through it, on
// both sides of each transfer, which is what makes the derived sizes agree
// by construction.
func clipWindowBytes(cl []clip, lo, hi int64) int64 {
	var n int64
	for _, c := range cl {
		if o, e := max(c.off, lo), min(c.off+c.ln, hi); o < e {
			n += e - o
		}
	}
	return n
}

// encReqSet encodes per-aggregator request lists into one arena blob:
// a count header (one int64 per aggregator) followed by the 16-byte
// off/len clip records in aggregator order. The consumer releases it with
// perf.PutBuf once decoded (hierDisseminate does).
func encReqSet(reqs []stream) []byte {
	total := 0
	for _, s := range reqs {
		total += len(s.req)
	}
	out := perf.GetBuf(8*len(reqs) + 16*total)
	pos := 0
	for _, s := range reqs {
		binary.LittleEndian.PutUint64(out[pos:], uint64(len(s.req)))
		pos += 8
	}
	for _, s := range reqs {
		for _, c := range s.req {
			binary.LittleEndian.PutUint64(out[pos:], uint64(c.off))
			binary.LittleEndian.PutUint64(out[pos+8:], uint64(c.ln))
			pos += 16
		}
	}
	return out
}

func decReqSet(b []byte, nag int) [][]clip {
	reqs := make([][]clip, nag)
	pos := 8 * nag
	for a := 0; a < nag; a++ {
		n := int(binary.LittleEndian.Uint64(b[8*a:]))
		if n == 0 {
			continue
		}
		cl := make([]clip, n)
		for i := range cl {
			cl[i].off = int64(binary.LittleEndian.Uint64(b[pos:]))
			cl[i].ln = int64(binary.LittleEndian.Uint64(b[pos+8:]))
			pos += 16
		}
		reqs[a] = cl
	}
	return reqs
}
