// Package experiments reproduces the paper's evaluation (Figures 1-2 and
// 6-11). Each runner builds a fresh simulated machine and file system,
// executes the workload at the requested scale, and returns structured
// points that the cmd tools, benchmarks, and EXPERIMENTS.md assertions all
// share.
//
// Scaling: workloads run with real buffers shrunk by a cost-scale divisor;
// the virtual-time cost model charges for paper-sized data, so reported
// bandwidths are for the paper's workload sizes. The divisor per workload
// is documented on the preset.
package experiments

import (
	"fmt"

	"repro/internal/bb"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pvfs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Preset bundles the scaled workload parameters for one fidelity level.
type Preset struct {
	Name string

	// Machine.
	Cluster cluster.Config
	// Storage model; CostScale is overridden per experiment.
	Lustre lustre.Config

	// Tile-IO (Figs 1, 2, 7, 8, 9): the paper's 1024x768-element tiles of
	// 64-byte elements (48 MB/process), shrunk by TileScale.
	Tile      workload.TileIO
	TileScale float64

	// IOR (Fig 6): 512 MB/process in 4 MB transfers, shrunk by IORScale.
	IORBlock, IORTransfer int64
	IORScale              float64

	// BT-IO (Fig 10): class C's 162^3 x 40 B solution approximated by an
	// N^3 cube of Elem-byte cells, shrunk by BTScale.
	BT      workload.BTIO
	BTScale float64

	// Flash (Fig 11): 32^3-cell blocks, 24 unknowns, shrunk by FlashScale.
	Flash      workload.FlashIO
	FlashScale float64

	// Shared file layout and collective buffer, already divided by the
	// workload scale where used (stripe/cb must shrink with the data so
	// round and request counts match the paper's).
	StripeCount int
	Seed        int64

	// Fault, when non-nil, applies a fault plan to every runner of this
	// preset: the cmd tools' -scenario flag sets it so any figure can be
	// re-measured under a named fault scenario. Runners that take an
	// explicit plan (TileUnderFailure, RecoverySuite, ...) ignore it in
	// favor of their own.
	Fault *fault.Plan

	// Workers is ignored.
	//
	// Deprecated: the simulation engine is serial; a runner's independent
	// points already run concurrently (ForEachPoint).
	Workers int

	// IntraNode turns on two-level collective I/O for every runner of this
	// preset (DESIGN.md §13): PEs sharing a node aggregate into their node
	// leader before any traffic crosses the NIC. Pair with
	// Cluster.PEsPerNode > 2 to model fat multicore nodes; the cmd tools'
	// -intranode and -pes-per-node flags set both.
	IntraNode bool

	// Backend selects the storage backend every runner builds (DESIGN.md
	// §14): "lustre" (or empty) the reference OST model, "listio" the
	// PVFS-style list-I/O server farm on the same hardware numbers, "bb"
	// the node-local burst-buffer tier staged over lustre. The cmd tools'
	// -backend flag sets it. Fault plans that degrade OSTs reach only the
	// lustre-family backends ("lustre", "bb"); the listio farm models a
	// healthy cluster.
	Backend string
	// BBCapacity is the per-node staging capacity in virtual bytes for the
	// "bb" backend (0 = unlimited); -bb-capacity.
	BBCapacity int64
	// BBDrainBW is the per-node drain bandwidth in bytes/second for the
	// "bb" backend (0 = the under-backend's native pace); -bb-drain-bw.
	BBDrainBW float64

	// BurstInterleave, when positive, makes the checkpoint-burst runners
	// stripe each rank's per-step block across the step's file range in
	// chunks of this many real bytes (workload.CheckpointBurst.Interleave):
	// the strided N-1 checkpoint whose dumps exercise the collective
	// exchange, so the group count matters. Zero keeps the contiguous
	// layout used by the published backend-sweep numbers.
	BurstInterleave int64
}

// PaperPreset runs the paper's workload geometry shrunk 4096x (tile/IOR)
// with proportional stripe and buffer sizes: 72 OSTs, 64-way striping,
// 2 PEs per node, SeaStar-class network.
func PaperPreset() Preset {
	return Preset{
		Name:    "paper/4096",
		Cluster: cluster.DefaultConfig(),
		Lustre:  lustre.DefaultConfig(),
		// 48 MB/process virtual -> 12 KB real. Rows keep the paper's
		// granularity: a 64 KB tile row becomes 16 real bytes, and the
		// full 768-row count is preserved so the per-request overhead
		// penalty of fine-grained I/O matches the paper's.
		Tile:      workload.TileIO{TileX: 16, TileY: 768, Elem: 1},
		TileScale: 4096,
		// 512 MB/process virtual -> 128 KB real, 4 MB -> 1 KB transfers.
		IORBlock:    128 << 10,
		IORTransfer: 1 << 10,
		IORScale:    4096,
		// Class C solution (~170 MB/dump) -> 144^3 x 1 B = 2.99 MB real.
		BT:      workload.BTIO{N: 144, Elem: 1, Steps: 10},
		BTScale: 57,
		// 19.8 MB/proc/var virtual -> 7.3 KB real: the paper's ~76 blocks
		// of 32^3 doubles per process become 76 blocks of 96 real bytes
		// (243 KB virtual each), preserving the request-count profile.
		Flash:       workload.FlashIO{NxB: 2, NyB: 2, NzB: 3, NBlocks: 76, NVars: 24, Elem: 8},
		FlashScale:  2530,
		StripeCount: 64,
		Seed:        1,
	}
}

// BenchPreset is a smaller-geometry preset for the root benchmarks: same
// shapes at lower process counts and sizes, so `go test -bench` finishes
// quickly.
func BenchPreset() Preset {
	p := PaperPreset()
	p.Name = "bench/quick"
	p.Tile = workload.TileIO{TileX: 16, TileY: 96, Elem: 1}
	p.IORBlock = 16 << 10
	p.BT = workload.BTIO{N: 48, Elem: 1, Steps: 4}
	p.BTScale = 1540
	p.Flash = workload.FlashIO{NxB: 2, NyB: 2, NzB: 3, NBlocks: 16, NVars: 8, Elem: 8}
	return p
}

// EnvFor builds a fresh file system environment for one run at the given
// scale, under the preset's fault plan (nil = healthy). Every runner and
// the cmd tools build theirs here.
func EnvFor(p Preset, scale float64, opts core.Options) workload.Env {
	return p.envPlan(scale, opts, p.Fault)
}

// run executes body on nprocs ranks under the preset's fault plan. All
// catalog runners go through here, so setting Preset.Fault perturbs every
// figure consistently.
func (p Preset) run(nprocs int, body func(r *mpi.Rank)) float64 {
	end, _ := mpi.RunPlan(nprocs, p.Cluster, p.Seed, p.Fault, body)
	return end
}

// envPlan is EnvFor with a fault plan threaded into the storage config
// (target degradation and failures). mpi.RunPlan installs the rest at run
// time: the sim- and cluster-level parts, and the plan the protocol layers
// read from the rank (per-round noise, crashes, staging deaths).
func (p Preset) envPlan(scale float64, opts core.Options, plan *fault.Plan) workload.Env {
	env := p.mount(scale, plan)
	env.Opts = p.normalize(opts, env.Stripe.Size)
	return env
}

// mount builds the storage half of an environment: the cost-scaled backend
// under the plan, its stripe (4 MB virtual, at least 256 real bytes), and —
// under a fault plan — the integrity ledger. Options are left zero.
func (p Preset) mount(scale float64, plan *fault.Plan) workload.Env {
	lcfg := p.Lustre
	lcfg.CostScale = scale
	if !plan.IsZero() {
		lcfg.Faults = plan
	}
	stripeSize := max(int64(4<<20)/int64(scale), 256)
	env := workload.Env{
		FS:     p.newBackend(lcfg),
		Stripe: storage.Stripe{Count: p.StripeCount, Size: stripeSize},
	}
	if !plan.IsZero() {
		// Faulted runs carry the integrity audit: every acknowledged store
		// is digested at issue time and recovery runners verify read-back
		// against it. Recording is free in virtual time and draw-free.
		env.Ledger = storage.NewLedger(p.Seed)
		env.FS.SetLedger(env.Ledger)
	}
	return env
}

// normalize completes a run's options against the preset and its mount:
// the preset's intra-node hint, and the collective buffer defaulted to one
// stripe (4 MB virtual). The fault plan needs no threading here: the
// protocol layers read it from the rank (mpi.Rank.Fault).
func (p Preset) normalize(opts core.Options, stripeSize int64) core.Options {
	if p.IntraNode {
		opts.Hints.IntraNode = true
	}
	if opts.Hints.CBBufferSize == 0 {
		opts.Hints.CBBufferSize = stripeSize
	}
	return opts
}

// newBackend builds the preset's storage backend from the (already
// fault-threaded, cost-scaled) lustre config. The listio farm reuses the
// lustre hardware numbers so sweeps isolate the protocol difference; the
// bb tier stages over a lustre instance built from the same config.
func (p Preset) newBackend(lcfg lustre.Config) storage.Backend {
	switch p.Backend {
	case "", "lustre":
		return lustre.NewFS(lcfg)
	case "listio":
		return pvfs.NewFS(lcfg.FarmConfig)
	case "bb":
		return bb.New(lustre.NewFS(lcfg), bb.Config{
			Capacity:       p.BBCapacity,
			DrainBandwidth: p.BBDrainBW,
			Seed:           lcfg.Seed,
			Faults:         lcfg.Faults,
		})
	default:
		panic(fmt.Sprintf("experiments: unknown backend %q (want lustre|listio|bb)", p.Backend))
	}
}

// WallPoint is one process count's collective-I/O time breakdown under the
// baseline (unpartitioned) protocol — the data behind Figures 1 and 2.
type WallPoint struct {
	Procs     int
	Breakdown mpiio.Breakdown // mean across ranks, seconds
}

// SyncShare returns the synchronization fraction of total processing time.
func (w WallPoint) SyncShare() float64 {
	t := w.Breakdown.Total()
	if t == 0 {
		return 0
	}
	return w.Breakdown.Sync / t
}

// CollectiveWall profiles baseline collective writes of the tile workload
// across process counts (Figures 1 and 2).
func (p Preset) CollectiveWall(procs []int) []WallPoint {
	out := make([]WallPoint, len(procs))
	ForEachPoint(len(procs), maxRanks(procs), func(i int) { out[i], _ = p.CollectiveWallStats(procs[i]) })
	return out
}

// CollectiveWallStats runs one CollectiveWall point and also returns the
// simulation engine's scheduler counters, for benchmark harnesses that
// report simulator throughput.
func (p Preset) CollectiveWallStats(n int) (WallPoint, sim.Stats) {
	env := EnvFor(p, p.TileScale, core.Options{})
	var bd mpiio.Breakdown
	_, st := mpi.RunPlan(n, p.Cluster, p.Seed, p.Fault, func(r *mpi.Rank) {
		res := p.Tile.Write(r, env, "tile")
		m := workload.MeanBreakdown(mpi.WorldComm(r), res.Breakdown)
		if r.WorldRank() == 0 {
			bd = m
		}
	})
	return WallPoint{Procs: n, Breakdown: bd}, st
}

// GroupPoint is one subgroup count's tile-IO performance (Figures 7, 8).
type GroupPoint struct {
	Groups    int
	WriteBW   float64 // bytes/s
	ReadBW    float64
	Sync      float64 // mean seconds in synchronization during the write
	SyncShare float64
	Mode      core.Mode
}

// TileGroupSweep measures tile-IO write and read bandwidth against the
// number of ParColl subgroups (Figures 7 and 8). Groups == 1 is the
// baseline protocol ("Cray" series).
func (p Preset) TileGroupSweep(nprocs int, groups []int) []GroupPoint {
	out := make([]GroupPoint, len(groups))
	ForEachPoint(len(groups), nprocs, func(i int) {
		env := EnvFor(p, p.TileScale, core.Options{NumGroups: groups[i]})
		pt := &out[i]
		pt.Groups = groups[i]
		p.run(nprocs, func(r *mpi.Rank) {
			comm := mpi.WorldComm(r)
			wres := p.Tile.Write(r, env, "tile")
			rres := p.Tile.Read(r, env, "tile")
			wm := workload.MeanBreakdown(comm, wres.Breakdown)
			if r.WorldRank() == 0 {
				pt.WriteBW = wres.Bandwidth()
				pt.ReadBW = rres.Bandwidth()
				pt.Mode = wres.Plan.Mode
				pt.Sync = wm.Sync
				if t := wm.Total(); t > 0 {
					pt.SyncShare = wm.Sync / t
				}
			}
		})
	})
	return out
}

// IORPoint is one (procs, groups) IOR bandwidth sample (Figure 6).
type IORPoint struct {
	Procs  int
	Groups int
	BW     float64
}

// IORGroups measures IOR shared-file collective-write bandwidth for each
// process count and subgroup count (Figure 6).
func (p Preset) IORGroups(procs []int, groupsFor func(nprocs int) []int) []IORPoint {
	var out []IORPoint
	for _, n := range procs {
		for _, g := range groupsFor(n) {
			out = append(out, IORPoint{Procs: n, Groups: g})
		}
	}
	ForEachPoint(len(out), maxRanks(procs), func(i int) {
		pt := &out[i]
		env := EnvFor(p, p.IORScale, core.Options{NumGroups: pt.Groups})
		w := workload.IOR{Block: p.IORBlock, Transfer: p.IORTransfer}
		res, _ := p.once(pt.Procs, p.Fault, w, env, "ior", false)
		pt.BW = res.Bandwidth()
	})
	return out
}

// ScalePoint compares baseline and best-ParColl write bandwidth at one
// process count (Figures 9 and 10).
type ScalePoint struct {
	Procs      int
	BaselineBW float64
	ParCollBW  float64
	BestGroups int
}

// BTPoint is BT-IO's ScalePoint (Figure 10).
type BTPoint = ScalePoint

// TileScalability sweeps process counts, picking ParColl's best subgroup
// count from candidates (Figure 9).
func (p Preset) TileScalability(procs []int, candidates func(nprocs int) []int) []ScalePoint {
	return bestGroups(procs, candidates, func(n, g int) float64 {
		env := EnvFor(p, p.TileScale, core.Options{NumGroups: g})
		res, _ := p.once(n, p.Fault, p.Tile, env, "tile", false)
		return res.Bandwidth()
	})
}

// BTIOScale sweeps (square) process counts for BT-IO full mode
// (Figure 10). BT-IO's scattered pattern exercises intermediate file views.
func (p Preset) BTIOScale(procs []int, candidates func(nprocs int) []int) []BTPoint {
	return bestGroups(procs, candidates, func(n, g int) float64 {
		// BT-IO's pattern (c) runs with the materialized intermediate
		// view — the configuration that reproduces the paper's Figure
		// 10 (see DESIGN.md on the layout interpretation).
		env := EnvFor(p, p.BTScale, core.Options{NumGroups: g, MaterializeIntermediate: g > 1})
		res, _ := p.once(n, p.Fault, p.BT, env, "bt", false)
		return res.Bandwidth()
	})
}

// bestGroups measures bw at every process count with groups 1 (the
// baseline) and each candidate, all as independent points, then keeps per
// process count the baseline and the best ParColl bandwidth, first best
// winning ties.
func bestGroups(procs []int, candidates func(nprocs int) []int, bw func(n, g int) float64) []ScalePoint {
	type run struct{ pt, g int }
	var out []ScalePoint
	var runs []run
	for _, n := range procs {
		out = append(out, ScalePoint{Procs: n})
		for _, g := range append([]int{1}, candidates(n)...) {
			runs = append(runs, run{len(out) - 1, g})
		}
	}
	bws := make([]float64, len(runs))
	ForEachPoint(len(runs), maxRanks(procs), func(i int) { bws[i] = bw(out[runs[i].pt].Procs, runs[i].g) })
	for i, r := range runs {
		if pt := &out[r.pt]; r.g == 1 {
			pt.BaselineBW = bws[i]
		} else if bws[i] > pt.ParCollBW {
			pt.ParCollBW, pt.BestGroups = bws[i], r.g
		}
	}
	return out
}

// FlashPoint is one Flash I/O checkpoint configuration (Figure 11).
type FlashPoint struct {
	Label string
	BW    float64
}

// FlashSeries measures checkpoint bandwidth for the paper's Figure 11
// series: the default aggregator selection and a 64-aggregator hint, each
// baseline vs ParColl-N, plus the no-collective-I/O reference.
func (p Preset) FlashSeries(nprocs, ngroups, hintAggs int) []FlashPoint {
	aggHint := mpiio.Hints{CBNodes: hintAggs}
	out := []FlashPoint{
		{Label: "Cray (default aggs)"},
		{Label: "ParColl (default aggs)"},
		{Label: fmt.Sprintf("Cray (%d aggs)", hintAggs)},
		{Label: fmt.Sprintf("ParColl (%d aggs)", hintAggs)},
		{Label: "Cray w/o Coll"},
	}
	opts := []core.Options{{}, {NumGroups: ngroups}, {Hints: aggHint}, {NumGroups: ngroups, Hints: aggHint}, {}}
	ForEachPoint(len(out), nprocs, func(i int) {
		env := EnvFor(p, p.FlashScale, opts[i])
		if i < len(out)-1 {
			res, _ := p.once(nprocs, p.Fault, p.Flash, env, "flash", false)
			out[i].BW = res.Bandwidth()
			return
		}
		p.run(nprocs, func(r *mpi.Rank) { // "Cray w/o Coll"
			res := p.Flash.WriteCheckpointIndependent(r, env, "flash")
			if r.WorldRank() == 0 {
				out[i].BW = res.Bandwidth()
			}
		})
	})
	return out
}
