package experiments

import (
	"repro/internal/core"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/workload"
)

// IntraNodePoint is one (PEs-per-node, protocol) sample of the fat-node
// sweep: an interleaved shared-file write's time breakdown next to the
// obs-counted point-to-point traffic, split by whether each message stayed
// on its node or crossed the NIC. The two-level protocol's whole case rests
// on the Inter* columns: with aggregation on, only node leaders inject into
// the network, so cross-node message counts drop while intra-node counts
// rise.
type IntraNodePoint struct {
	PEsPerNode int
	Aggs       int  // aggregator count (cb_nodes), fixed across the sweep
	IntraNode  bool // two-level protocol on?
	Elapsed    float64
	Breakdown  mpiio.Breakdown // mean across ranks, seconds
	IntraMsgs  uint64          // p2p messages that stayed on-node
	IntraBytes uint64
	InterMsgs  uint64 // p2p messages that crossed the NIC
	InterBytes uint64
}

// SyncShare returns the synchronization fraction of total processing time.
func (p IntraNodePoint) SyncShare() float64 {
	t := p.Breakdown.Total()
	if t == 0 {
		return 0
	}
	return p.Breakdown.Sync / t
}

// IntraNodeSweep measures a fine-grained strided-IOR shared-file write at
// each PEs-per-node count, flat protocol then two-level, on the same machine
// geometry — the data behind the fat-node section of EXPERIMENTS.md. Two
// choices make it the two-level protocol's home turf (and the flat
// protocol's worst case): the aggregator count is pinned (cb_nodes = aggs)
// while node fatness grows, so each node holds more and more PEs whose
// chunks fall in the same remote aggregator's file domain; and the pieces
// are 64-byte slivers at cost scale 1, so the exchange is per-message
// overhead, not bandwidth. The flat protocol then sends every PE's sliver
// as its own NIC message where the two-level one merges a whole node's into
// one leader message — a cross-node message reduction approaching the
// PEs-per-node factor. Each run is instrumented with a metrics registry so
// the per-level message counters are exact counts, not estimates; the
// instrumentation is observe-only and does not perturb virtual time.
func (p Preset) IntraNodeSweep(nprocs, aggs int, pesPerNode []int) []IntraNodePoint {
	var out []IntraNodePoint
	for _, pes := range pesPerNode {
		out = append(out, IntraNodePoint{PEsPerNode: pes}, IntraNodePoint{PEsPerNode: pes, IntraNode: true})
	}
	ForEachPoint(len(out), nprocs, func(i int) { out[i] = p.IntraNodePoint(nprocs, aggs, out[i].PEsPerNode, out[i].IntraNode) })
	return out
}

// IntraNodePoint runs one instrumented fine-grained strided write with the
// given node fatness, aggregator count, and protocol, and returns its
// sample. The geometry is fixed (4 KB per rank in 64-byte slivers, 1 KB
// collective buffer, unscaled costs) so points differ only in topology and
// protocol.
func (p Preset) IntraNodePoint(nprocs, aggs, pesPerNode int, intra bool) IntraNodePoint {
	p.Cluster.PEsPerNode = pesPerNode
	reg := obs.New()
	lcfg := p.Lustre
	lcfg.CostScale = 1
	env := workload.Env{
		FS:     lustre.NewFS(lcfg),
		Stripe: storage.Stripe{Count: p.StripeCount, Size: 4096},
		Opts: core.Options{Hints: mpiio.Hints{
			CBNodes: aggs, CBBufferSize: 1024, IntraNode: intra,
		}},
	}
	w := workload.IOR{Block: 4096, Transfer: 64, Strided: true}
	var bd mpiio.Breakdown
	var res workload.Result
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, p.Fault, func(r *mpi.Rank) {
		r.SetObs(reg)
		out := w.Write(r, env, "ior-strided")
		m := workload.MeanBreakdown(mpi.WorldComm(r), out.Breakdown)
		if r.WorldRank() == 0 {
			res = out
			bd = m
		}
	})
	return IntraNodePoint{
		PEsPerNode: pesPerNode,
		Aggs:       aggs,
		IntraNode:  intra,
		Elapsed:    res.Elapsed,
		Breakdown:  bd,
		IntraMsgs:  reg.Counter("mpi.p2p.intra.msgs").Value(),
		IntraBytes: reg.Counter("mpi.p2p.intra.bytes").Value(),
		InterMsgs:  reg.Counter("mpi.p2p.inter.msgs").Value(),
		InterBytes: reg.Counter("mpi.p2p.inter.bytes").Value(),
	}
}
