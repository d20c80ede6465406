package mpi

import (
	"encoding/binary"

	"repro/internal/perf"
)

// Collective operations. All are synchronizing to the degree the underlying
// algorithm requires, and their costs emerge from the point-to-point model:
// a collective over P ranks pays O(log P) latency terms plus any waiting for
// stragglers, which is precisely the "synchronization" the paper's Figure 2
// breakdown measures.
//
// Tag discipline: every collective invocation draws a fresh tag from a
// per-communicator sequence (all members call collectives in the same
// order, so the sequences agree). This keeps messages from consecutive
// collectives apart even with wildcard receives. A collective may use up to
// collSubTags sub-channels (e.g. a count phase and a data phase).

const (
	collTagBase = 1 << 16
	collSubTags = 8
	collSeqMod  = 1 << 12
)

// nextCollTag starts a new collective invocation and returns its base tag.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return collTagBase + (c.collSeq%collSeqMod)*collSubTags
}

// Barrier blocks until all members reach it. Cost model: the dissemination
// algorithm's ceil(log2 P) rounds plus waiting for the slowest member.
func (c *Comm) Barrier() {
	c.r.noteColl("barrier", 0)
	t0 := c.r.begin()
	defer c.r.end(t0)
	c.syncExchange(c.nextCollTag(), nil, func(int64) float64 {
		return float64(logSteps(c.Size())) * c.stepCost()
	})
}

// Bcast distributes root's data to all members (binomial tree) and returns
// it. Non-root callers pass nil.
//
// Ownership: the returned slice may be shared by several ranks (the tree
// relays one buffer without copying); treat it as read-only.
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.r.noteColl("bcast", int64(len(data)))
	t0 := c.r.begin()
	defer c.r.end(t0)
	return c.bcastT(root, data, c.nextCollTag())
}

func (c *Comm) bcastT(root int, data []byte, tag int) []byte {
	p := c.Size()
	vr := (c.me - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := (vr - mask + root) % p
			data, _ = c.recv(src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			dst := (vr + mask + root) % p
			c.send(dst, tag, data)
		}
		mask >>= 1
	}
	return data
}

// Gather collects each member's data at root, returned indexed by comm rank
// (nil for non-roots). Blocks may have different sizes (gatherv semantics).
// Ownership of data transfers to the collective (see Send).
func (c *Comm) Gather(root int, data []byte) [][]byte {
	c.r.noteColl("gather", int64(len(data)))
	t0 := c.r.begin()
	defer c.r.end(t0)
	tag := c.nextCollTag()
	p := c.Size()
	if c.me != root {
		c.send(root, tag, data)
		return nil
	}
	out := make([][]byte, p)
	out[root] = data
	for i := 0; i < p-1; i++ {
		blk, st := c.recv(AnySource, tag)
		out[st.Source] = blk
	}
	return out
}

// Allgather shares every member's data with every member; the result is
// indexed by comm rank. Blocks may have different sizes (allgatherv
// semantics). Cost model: the Bruck concatenation-doubling algorithm —
// ceil(log2 P) latency rounds plus the full gathered volume over the NIC.
//
// Ownership: the returned blocks are the members' own payload buffers,
// shared by every rank rather than copied; treat them as read-only. The
// outer slice is private to the caller.
func (c *Comm) Allgather(data []byte) [][]byte {
	c.r.noteColl("allgather", int64(len(data)))
	t0 := c.r.begin()
	defer c.r.end(t0)
	shared := c.syncExchange(c.nextCollTag(), data, func(total int64) float64 {
		return float64(logSteps(c.Size()))*c.stepCost() + c.bwCost(total)
	})
	return append([][]byte(nil), shared...)
}

// AllgatherInt64s is Allgather for int64 vectors.
func (c *Comm) AllgatherInt64s(vals []int64) [][]int64 {
	c.r.noteColl("allgather", int64(len(vals))*8)
	t0 := c.r.begin()
	defer c.r.end(t0)
	shared := c.syncExchange(c.nextCollTag(), encInt64s(vals), func(total int64) float64 {
		return float64(logSteps(c.Size()))*c.stepCost() + c.bwCost(total)
	})
	// Decode all members' vectors into one backing array: two allocations
	// instead of one per member (this runs in buildPlan's step 1, the
	// hottest collective of the I/O path).
	total := 0
	for _, b := range shared {
		total += len(b) / 8
	}
	flat := make([]int64, total)
	out := make([][]int64, len(shared))
	for i, b := range shared {
		n := len(b) / 8
		out[i] = flat[:n:n]
		flat = flat[n:]
		decInt64sInto(out[i], b)
	}
	return out
}

// Alltoall delivers blocks[i] to member i and returns the blocks received,
// indexed by source rank. Implemented with Bruck distance routing:
// ceil(log2 P) rounds moving about half the blocks each round — the right
// algorithm for the small control messages collective I/O exchanges.
func (c *Comm) Alltoall(blocks [][]byte) [][]byte {
	if c.r.reg != nil {
		c.r.noteColl("alltoall", sumLens(blocks))
	}
	t0 := c.r.begin()
	defer c.r.end(t0)
	return c.alltoallBruckT(blocks, c.nextCollTag())
}

func (c *Comm) alltoallBruckT(blocks [][]byte, tag int) [][]byte {
	p := c.Size()
	if len(blocks) != p {
		panic("mpi: Alltoall needs one block per member")
	}
	held := make([]routedBlock, 0, p)
	for dst, b := range blocks {
		held = append(held, routedBlock{src: c.me, dst: dst, data: b})
	}
	for pof := 1; pof < p; pof <<= 1 {
		var fwd, keep []routedBlock
		for _, blk := range held {
			if dist := (blk.dst - c.me + p) % p; dist&pof != 0 {
				fwd = append(fwd, blk)
			} else {
				keep = append(keep, blk)
			}
		}
		c.send((c.me+pof)%p, tag, encRouted(fwd))
		in, _ := c.recv((c.me-pof+p)%p, tag)
		held = append(keep, decRouted(in)...)
	}
	out := make([][]byte, p)
	for _, blk := range held {
		if blk.dst != c.me {
			panic("mpi: alltoall routing left a block at the wrong rank")
		}
		out[blk.src] = blk.data
	}
	return out
}

// AlltoallInts exchanges one int per pair (the classic count exchange that
// precedes a v-collective, and the per-round synchronization point of
// two-phase I/O). Cost model: the Bruck algorithm — ceil(log2 P) rounds,
// each moving about half the table.
func (c *Comm) AlltoallInts(vals []int) []int {
	out := make([]int, len(vals))
	c.AlltoallIntsInto(out, vals)
	return out
}

// AlltoallIntsInto is AlltoallInts writing the result into dst (length
// Size()); the per-round loops of two-phase I/O reuse one result slice.
func (c *Comm) AlltoallIntsInto(dst, vals []int) {
	c.r.noteColl("alltoall", int64(len(vals))*8)
	t0 := c.r.begin()
	defer c.r.end(t0)
	c.alltoallIntsR(dst, vals, c.nextCollTag())
}

func (c *Comm) alltoallIntsR(dst, vals []int, tag int) {
	p := c.Size()
	if len(vals) != p || len(dst) != p {
		panic("mpi: AlltoallInts needs one value per member")
	}
	// Rows are sparse in two-phase I/O (a process talks to a handful of
	// aggregators per round), so deposit only the nonzero (column, value)
	// pairs, encoded straight to wire bytes. The analytic cost still
	// charges the dense Bruck exchange the real protocol performs.
	nz := 0
	for _, v := range vals {
		if v != 0 {
			nz++
		}
	}
	var enc []byte
	if nz > 0 {
		enc = make([]byte, 0, 16*nz)
		for i, v := range vals {
			if v != 0 {
				enc = binary.LittleEndian.AppendUint64(enc, uint64(int64(i)))
				enc = binary.LittleEndian.AppendUint64(enc, uint64(int64(v)))
			}
		}
	}
	rows := c.syncExchange(tag, enc, func(int64) float64 {
		perStep := c.stepCost() + c.bwCost(int64(p/2)*8)
		return float64(logSteps(p)) * perStep
	})
	clear(dst)
	for src, row := range rows {
		for i := 0; i+16 <= len(row); i += 16 {
			if int(int64(binary.LittleEndian.Uint64(row[i:]))) == c.me {
				dst[src] = int(int64(binary.LittleEndian.Uint64(row[i+8:])))
				break
			}
		}
	}
}

// AlltoallvAlgo selects the algorithm used by Alltoallv.
type AlltoallvAlgo int

const (
	// AlltoallvDirect exchanges counts with a Bruck alltoall and then
	// sends only non-empty blocks point-to-point (the ROMIO approach).
	AlltoallvDirect AlltoallvAlgo = iota
	// AlltoallvPairwise runs P-1 synchronous sendrecv rounds, even for
	// empty blocks. Used by the ablation that shows replacing collectives
	// with point-to-point rounds does not remove the synchronization.
	AlltoallvPairwise
)

// Alltoallv delivers send[i] to member i (nil/empty means nothing) and
// returns received blocks indexed by source; absent blocks are nil.
func (c *Comm) Alltoallv(send [][]byte, algo AlltoallvAlgo) [][]byte {
	if c.r.reg != nil {
		c.r.noteColl("alltoallv", sumLens(send))
	}
	t0 := c.r.begin()
	defer c.r.end(t0)
	tag := c.nextCollTag()
	p := c.Size()
	if len(send) != p {
		panic("mpi: Alltoallv needs one entry per member")
	}
	out := make([][]byte, p)
	switch algo {
	case AlltoallvPairwise:
		for k := 1; k < p; k++ {
			dst, src := (c.me+k)%p, (c.me-k+p)%p
			c.send(dst, tag, send[dst])
			blk, _ := c.recv(src, tag)
			if len(blk) > 0 {
				out[src] = blk
			}
		}
	default: // AlltoallvDirect
		counts := make([]int, p)
		for i, b := range send {
			counts[i] = len(b)
		}
		recvCounts := make([]int, p)
		c.alltoallIntsR(recvCounts, counts, tag) // sub-channel 0
		dataTag := tag + 1                       // sub-channel 1
		var expect int
		for src, n := range recvCounts {
			if src != c.me && n > 0 {
				expect++
			}
		}
		for dst, b := range send {
			if dst != c.me && len(b) > 0 {
				c.send(dst, dataTag, b)
			}
		}
		for i := 0; i < expect; i++ {
			blk, st := c.recv(AnySource, dataTag)
			out[st.Source] = blk
		}
	}
	if len(send[c.me]) > 0 {
		out[c.me] = send[c.me]
	}
	return out
}

// Op is a reduction operator.
type Op int

const (
	// OpSum adds elementwise.
	OpSum Op = iota
	// OpMax takes the elementwise maximum.
	OpMax
	// OpMin takes the elementwise minimum.
	OpMin
)

func combineInt64(a, b []int64, op Op) {
	for i := range a {
		switch op {
		case OpSum:
			a[i] += b[i]
		case OpMax:
			if b[i] > a[i] {
				a[i] = b[i]
			}
		case OpMin:
			if b[i] < a[i] {
				a[i] = b[i]
			}
		}
	}
}

// ReduceInt64 combines vals elementwise at root (binomial tree). Only root
// receives the result; others get nil.
func (c *Comm) ReduceInt64(root int, vals []int64, op Op) []int64 {
	c.r.noteColl("reduce", int64(len(vals))*8)
	t0 := c.r.begin()
	defer c.r.end(t0)
	return c.reduceInt64T(root, vals, op, c.nextCollTag())
}

func (c *Comm) reduceInt64T(root int, vals []int64, op Op, tag int) []int64 {
	p := c.Size()
	vr := (c.me - root + p) % p
	acc := append([]int64(nil), vals...)
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			dst := (vr - mask + root) % p
			c.send(dst, tag, encInt64sBuf(acc))
			return nil
		}
		if src := vr | mask; src < p {
			// Every tree message is arena-built by the child above, so the
			// payload is single-owner and can go back to the pool here.
			in, _ := c.recv((src+root)%p, tag)
			combineInt64Bytes(acc, in, op)
			perf.PutBuf(in)
		}
	}
	return acc
}

// allreduceCost models reduce-to-root plus broadcast: two binomial trees.
func (c *Comm) allreduceCost(vecBytes int64) func(int64) float64 {
	return func(int64) float64 {
		steps := float64(logSteps(c.Size()))
		return 2 * steps * (c.stepCost() + c.bwCost(vecBytes))
	}
}

// AllreduceInt64 combines vals elementwise across all members and returns
// the result everywhere. Cost model: reduce to rank 0 plus broadcast (two
// binomial trees).
func (c *Comm) AllreduceInt64(vals []int64, op Op) []int64 {
	c.r.noteColl("allreduce", int64(len(vals))*8)
	t0 := c.r.begin()
	defer c.r.end(t0)
	all := c.syncExchange(c.nextCollTag(), encInt64s(vals), c.allreduceCost(int64(len(vals))*8))
	acc := decInt64s(all[0])
	for _, b := range all[1:] {
		combineInt64Bytes(acc, b, op)
	}
	return acc
}

// AllreduceFloat64 is AllreduceInt64 for float64 vectors.
func (c *Comm) AllreduceFloat64(vals []float64, op Op) []float64 {
	c.r.noteColl("allreduce", int64(len(vals))*8)
	t0 := c.r.begin()
	defer c.r.end(t0)
	all := c.syncExchange(c.nextCollTag(), encFloat64s(vals), c.allreduceCost(int64(len(vals))*8))
	acc := decFloat64s(all[0])
	for _, b := range all[1:] {
		combineFloat64Bytes(acc, b, op)
	}
	return acc
}

// MaxFinishTime is a convenience for experiments: an allreduce of each
// rank's clock, returning the communicator-wide maximum (it synchronizes).
func (c *Comm) MaxFinishTime() float64 {
	v := c.AllreduceFloat64([]float64{c.r.Now()}, OpMax)
	return v[0]
}

// sumLens totals the payload bytes of a block vector (metrics only; callers
// guard on the registry being armed so bare runs skip the loop).
func sumLens(blocks [][]byte) int64 {
	var n int64
	for _, b := range blocks {
		n += int64(len(b))
	}
	return n
}
