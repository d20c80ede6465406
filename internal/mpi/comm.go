package mpi

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// AnySource matches a message from any rank in the communicator.
const AnySource = sim.AnySource

// tagSpace reserves the low bits of the sim tag for user and collective
// tags; the communicator context occupies the high bits, isolating traffic
// of different communicators that share members.
const tagSpace = 1 << 18

// MaxUserTag is the largest tag application point-to-point code may use;
// tags above it belong to collective invocations.
const MaxUserTag = collTagBase - 1

// Comm is a communicator: an ordered group of ranks with an isolated tag
// space. Comm values are per-rank views of the same logical communicator.
type Comm struct {
	r           *Rank
	members     []int // comm rank -> world rank
	worldToComm map[int]int
	me          int // my comm rank
	ctx         int
	splits      int // number of Split calls issued on this comm so far
	collSeq     int // collective-invocation sequence (lockstep across members)
	// local marks a node-local communicator: its rendezvous collectives are
	// priced on the memory path (MemLatency/MemBandwidth) instead of the NIC.
	// Set only by NewHierarchy on intra-node comms; deliberately not
	// inherited by Split — locality of a derived group is the deriver's
	// call, not a property that survives regrouping.
	local bool
}

// WorldComm returns the communicator spanning the rank's world: all ranks
// normally, the job's members when a job namespace is armed (SetJob). The
// job case is what lets every workload — all written against "the world" —
// run unmodified inside a multi-tenant trace. Isolation needs no context
// tricks: member sets of different jobs are disjoint, so point-to-point
// traffic lands in different procs' mailboxes and rendezvous collectives
// key on different anchor ranks even at equal (ctx, seq).
func WorldComm(r *Rank) *Comm {
	members := r.JobMembers()
	if members == nil {
		n := r.WorldSize()
		members = make([]int, n)
		for i := range members {
			members[i] = i
		}
	}
	w2c := make(map[int]int, len(members))
	for i, w := range members {
		w2c[w] = i
	}
	return &Comm{r: r, members: members, worldToComm: w2c, me: r.JobRank(), ctx: 0}
}

// RankHandle returns the Rank this communicator view belongs to.
func (c *Comm) RankHandle() *Rank { return c.r }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// Rank returns the calling rank's id within the communicator.
func (c *Comm) Rank() int { return c.me }

// WorldRankOf translates a comm rank to its world rank.
func (c *Comm) WorldRankOf(commRank int) int { return c.members[commRank] }

// RankOfWorld translates a world rank to a comm rank (-1 if not a member).
func (c *Comm) RankOfWorld(world int) int {
	if cr, ok := c.worldToComm[world]; ok {
		return cr
	}
	return -1
}

func (c *Comm) encTag(tag int) int {
	if tag < 0 || tag >= tagSpace {
		panic(fmt.Sprintf("mpi: tag %d out of range", tag))
	}
	return c.ctx*tagSpace + tag
}

// UndefinedColor makes Split return nil for the calling rank, like
// MPI_UNDEFINED.
const UndefinedColor = -1

// Split partitions the communicator by color; within each color ranks are
// ordered by (key, old rank). It is collective over the communicator. Ranks
// passing UndefinedColor receive nil.
func (c *Comm) Split(color, key int) *Comm {
	// Gather (color, key) from everyone. This mirrors MPI_Comm_split cost.
	pairs := c.AllgatherInt64s([]int64{int64(color), int64(key)})
	ctx := c.ctx*131 + c.splits + 1
	c.splits++
	if color == UndefinedColor {
		return nil
	}
	type ent struct{ key, old int }
	var group []ent
	for old, p := range pairs {
		if int(p[0]) == color {
			group = append(group, ent{int(p[1]), old})
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].old < group[j].old
	})
	members := make([]int, len(group))
	w2c := make(map[int]int, len(group))
	me := -1
	for i, g := range group {
		members[i] = c.members[g.old]
		w2c[members[i]] = i
		if g.old == c.me {
			me = i
		}
	}
	return &Comm{r: c.r, members: members, worldToComm: w2c, me: me, ctx: ctx}
}
