package mpi

import "math/bits"

// Rendezvous-based collectives.
//
// The control collectives of two-phase I/O (the per-round size alltoall,
// the offset allgather, the round-count allreduce, barriers) are called
// thousands of times per experiment. Simulating each as log P real
// messages is faithful but costs a goroutine switch per message, so these
// hot operations instead use a rendezvous: every member deposits its
// payload and blocks; the last arrival computes the result time
//
//	t_end = max(arrival times) + analyticCost
//
// and wakes everyone. The two effects that build the paper's collective
// wall are preserved exactly: the synchronization to the slowest member
// (the max), and the log P-shaped algorithmic cost (the analytic term,
// matching the Bruck/binomial algorithms used by the message-based
// implementations). What is sacrificed is only NIC-level contention
// between control messages and bulk data, which is negligible for the
// few-byte control payloads. Data-bearing operations (point-to-point
// exchange, Alltoallv blocks, Bcast/Gather) remain message-based.

// collKey identifies one collective invocation on one communicator.
// Sibling communicators born from one Split share ctx and advance the same
// collective sequence, so the group's first member disambiguates them.
type collKey struct {
	ctx, seq, anchor int
}

// collSlot is the shared arrival record for an in-progress rendezvous.
type collSlot struct {
	payloads [][]byte // by comm rank
	waiting  []int    // world ranks parked so far
	arrived  int
	tmax     float64 // latest deposit time seen
}

// logSteps returns ceil(log2 p) (0 for p <= 1).
func logSteps(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// stepCost is the fixed per-step cost of a collective round: one latency
// plus send and receive CPU overheads. Node-local communicators hop over
// shared memory, not the wire.
func (c *Comm) stepCost() float64 {
	cc := c.r.W.Cluster.Config()
	if c.local {
		return cc.MemLatency + cc.SendOverhead + cc.RecvOverhead
	}
	return cc.Latency + cc.SendOverhead + cc.RecvOverhead
}

// bwCost converts a byte volume to seconds on the NIC — or on the memory
// bus for a node-local communicator.
func (c *Comm) bwCost(bytes int64) float64 {
	cc := c.r.W.Cluster.Config()
	if c.local {
		return float64(bytes) / cc.MemBandwidth
	}
	return float64(bytes) / cc.NICBandwidth
}

// syncExchange deposits payload, waits until every member has arrived, and
// returns all members' payloads indexed by comm rank. Every member's clock
// advances to max(arrivals) + extra(totalBytes).
//
// Ownership: the deposited payload is published to every member without
// copying (the ownership-transfer convention, see Send), so the returned
// slices are shared between members and must be treated as read-only — and
// never released to the arena, since several ranks hold them.
func (c *Comm) syncExchange(tag int, payload []byte, extra func(totalBytes int64) float64) [][]byte {
	p := c.Size()
	if p == 1 {
		return [][]byte{payload}
	}
	w := c.r.W
	key := collKey{ctx: c.ctx, seq: tag, anchor: c.members[0]}
	slot, ok := w.coll[key]
	if !ok {
		slot = &collSlot{payloads: make([][]byte, p)}
		w.coll[key] = slot
	}
	slot.payloads[c.me] = payload
	slot.arrived++
	if now := c.r.P.Now(); now > slot.tmax {
		slot.tmax = now
	}
	me := c.members[c.me]
	if slot.arrived < p {
		slot.waiting = append(slot.waiting, me)
		m := c.r.P.Recv(AnySource, c.encTag(tag))
		return m.Payload.(*collSlot).payloads
	}
	// Last arrival: compute completion time and wake everyone.
	delete(w.coll, key)
	var total int64
	for _, b := range slot.payloads {
		total += int64(len(b))
	}
	tEnd := slot.tmax + extra(total)
	for _, wr := range slot.waiting {
		c.r.P.Send(wr, c.encTag(tag), slot, tEnd)
	}
	c.r.P.AdvanceTo(tEnd)
	c.r.prof.Msgs += int64(logSteps(p))
	c.r.prof.Bytes += total
	return slot.payloads
}
