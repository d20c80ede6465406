package mpi

import "repro/internal/sim"

// envelopeBytes models the per-message header cost on the wire.
const envelopeBytes = 32

// Status describes a received message.
type Status struct {
	Source int // comm rank of the sender
	Tag    int
}

// Send transmits data to comm rank dst with the given tag. Sends are eager:
// the sender is charged its CPU overhead and NIC time is booked, but the
// call does not wait for delivery.
//
// Ownership transfer: the payload is handed to the runtime without copying.
// The caller must not modify data after Send returns; the matching Recv
// hands the same buffer to the receiver, which then owns it. Callers that
// need to keep writing to a buffer must send a copy themselves — every
// in-tree sender builds a fresh payload, which is why the runtime no longer
// pays a defensive copy per message.
func (c *Comm) Send(dst, tag int, data []byte) {
	t0 := c.r.begin()
	defer c.r.end(t0)
	c.send(dst, tag, data)
}

// SendWeighted is Send, but the transfer cost is computed as if the payload
// were virtBytes long. Cost-scaled experiments use it so that small real
// buffers stand in for paper-sized data while control messages keep their
// true sizes.
func (c *Comm) SendWeighted(dst, tag int, data []byte, virtBytes int) {
	t0 := c.r.begin()
	defer c.r.end(t0)
	c.sendOwned(dst, tag, data, virtBytes)
}

// send is the unmeasured internal form used by collectives.
func (c *Comm) send(dst, tag int, data []byte) {
	c.sendOwned(dst, tag, data, len(data))
}

// sendOwned transfers a payload the caller relinquishes (the ownership-
// transfer convention documented on Send).
func (c *Comm) sendOwned(dst, tag int, payload []byte, costBytes int) {
	if dst < 0 || dst >= len(c.members) {
		panic("mpi: Send to rank outside communicator")
	}
	r := c.r
	r.P.Sync() // order NIC bookings by virtual time across ranks
	srcW, dstW := c.members[c.me], c.members[dst]
	arrival := r.W.Cluster.Transfer(r.P, srcW, dstW, costBytes+envelopeBytes)
	r.P.Send(dstW, c.encTag(tag), payload, arrival)
	r.prof.Msgs++
	r.prof.Bytes += int64(costBytes)
	if r.p2pIntraMsgs != nil {
		if r.W.Cluster.SameNode(srcW, dstW) {
			r.p2pIntraMsgs.Inc()
			r.p2pIntraBytes.Add(uint64(costBytes))
		} else {
			r.p2pInterMsgs.Inc()
			r.p2pInterBytes.Add(uint64(costBytes))
		}
	}
}

// Recv blocks until a message with the given tag arrives from comm rank src
// (or any member when src == AnySource) and returns its payload.
//
// Ownership transfer: the returned slice is the sender's payload buffer,
// not a copy; the receiver owns it from here on. Receivers that fully
// consume a payload built from the arena may release it with perf.PutBuf.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	t0 := c.r.begin()
	defer c.r.end(t0)
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) ([]byte, Status) {
	r := c.r
	simSrc := sim.AnySource
	if src != AnySource {
		if src < 0 || src >= len(c.members) {
			panic("mpi: Recv from rank outside communicator")
		}
		simSrc = c.members[src]
	}
	return c.deliver(r.P.Recv(simSrc, c.encTag(tag)), tag)
}

// deliver charges the receive overhead for a message the engine handed
// over and returns its payload.
func (c *Comm) deliver(m sim.Message, tag int) ([]byte, Status) {
	c.r.P.Advance(c.r.W.Cluster.RecvCost())
	var data []byte
	if m.Payload != nil {
		data = m.Payload.([]byte)
	}
	return data, Status{Source: c.worldToComm[m.Src], Tag: tag}
}

// RecvUntil blocks until a message with the given tag arrives from comm
// rank src or `timeout` virtual seconds elapse, whichever comes first. On
// timeout it returns (nil, Status{}, false) with the clock advanced to
// exactly the deadline — the failure-detection primitive the resilient
// collective path builds on. Wildcards are not supported (detection is
// always about a specific peer), and payload ownership transfers exactly as
// in Recv.
func (c *Comm) RecvUntil(src, tag int, timeout float64) ([]byte, Status, bool) {
	t0 := c.r.begin()
	defer c.r.end(t0)
	r := c.r
	if src == AnySource {
		panic("mpi: RecvUntil with AnySource")
	}
	if src < 0 || src >= len(c.members) {
		panic("mpi: RecvUntil from rank outside communicator")
	}
	m, ok := r.P.RecvUntil(c.members[src], c.encTag(tag), r.Now()+timeout)
	if !ok {
		return nil, Status{}, false
	}
	data, st := c.deliver(m, tag)
	return data, st, true
}

// Sendrecv sends sdata to dst and receives a message from src, both with
// the same tag, without deadlocking (the send is eager).
func (c *Comm) Sendrecv(dst int, sdata []byte, src, tag int) ([]byte, Status) {
	t0 := c.r.begin()
	defer c.r.end(t0)
	c.send(dst, tag, sdata)
	return c.recv(src, tag)
}
