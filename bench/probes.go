package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Probes are direct, timed calls into one layer's exported functions. They
// do not depend on the workload, so every traced run reports the same set;
// a probe's number says what a call costs in isolation, the workload's
// traced ops and CPU shares say how much of it the workload makes.

// prober runs probes under spans and collects their numbers.
type prober struct {
	tr     *tracer
	parent spanRef
	seed   int64
	g      geometry
	vals   map[string]float64
}

// measure runs f reps times, each inside a span of its own under one span
// for the probe, and returns the median of what f returns.
func (pb *prober) measure(name string, reps int, f func() float64) float64 {
	if pb.g.oneRep {
		reps = 1
	}
	s := pb.tr.begin("probe:"+name, pb.parent)
	defer s.end()
	xs := make([]float64, reps)
	for i := range xs {
		rs := pb.tr.begin("rep", s)
		xs[i] = f()
		rs.end()
	}
	return median(xs)
}

// scaled runs f at both probe sizes and stores the cost per rank-call at
// the larger one under name and, when expName is set, the scaling exponent:
// log of the cost ratio over log of the size ratio. 0 means the per-rank
// cost does not grow with P, i.e. total cost is linear in P.
func (pb *prober) scaled(name, expName string, reps int, f func(procs int) float64) {
	lo, hi := pb.g.probeLo, pb.g.probeHi
	vhi := pb.measure(fmt.Sprintf("%s@%d", name, hi), reps, func() float64 { return f(hi) })
	pb.vals[name] = vhi
	if expName == "" {
		return
	}
	pb.vals[expName] = 0
	if hi != lo {
		vlo := pb.measure(fmt.Sprintf("%s@%d", name, lo), reps, func() float64 { return f(lo) })
		if vlo > 0 && vhi > 0 {
			pb.vals[expName] = math.Log(vhi/vlo) / math.Log(float64(hi)/float64(lo))
		}
	}
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// timeMs is the host time f takes, in ms.
func timeMs(f func()) float64 {
	t0 := time.Now()
	f()
	return ns(time.Since(t0)) / 1e6
}

// probeGroups is the subgroup count the core and obs probes partition P
// ranks into: 16 ranks per group, as ParColl's sweeps favour.
func probeGroups(procs int) int { return max(2, procs/16) }

// inRun runs one mpi job of that many ranks. mk prepares each rank and
// returns the call to time; rank 0 stamps host time after a barrier on each
// side of it. The engine runs the earliest rank first, so when rank 0
// leaves a barrier every rank has finished what came before it: the
// interval is the host time of all ranks' calls, without engine start-up.
func inRun(p experiments.Preset, procs int, mk func(r *mpi.Rank, comm *mpi.Comm) func()) time.Duration {
	var d time.Duration
	mpi.Run(procs, p.Cluster, p.Seed, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		call := mk(r, comm)
		comm.Barrier()
		var t0 time.Time
		if r.WorldRank() == 0 {
			t0 = time.Now()
		}
		call()
		comm.Barrier()
		if r.WorldRank() == 0 {
			d = time.Since(t0)
		}
	})
	return d
}

func (pb *prober) all() error {
	pb.simProbes()
	pb.mpiProbes()
	pb.datatypeProbes()
	if err := pb.mpiioProbes(); err != nil {
		return err
	}
	pb.coreProbes()
	pb.storageProbes()
	pb.obsProbes()
	return nil
}

// --- sim ---------------------------------------------------------------------

func simRun(procs int, seed int64, body func(p *sim.Proc)) time.Duration {
	e := sim.NewEngine(sim.Config{Seed: seed})
	t0 := time.Now()
	e.Run(procs, body)
	return time.Since(t0)
}

func (pb *prober) simProbes() {
	const rounds = 200
	spawn := map[int]float64{} // ns per engine run with an empty body
	for _, procs := range []int{pb.g.probeLo, pb.g.probeHi} {
		spawn[procs] = pb.measure(fmt.Sprintf("sim.spawn@%d", procs), 5, func() float64 {
			return ns(simRun(procs, pb.seed, func(*sim.Proc) {}))
		})
	}
	pb.vals["sim.spawn_us_per_proc"] = spawn[pb.g.probeHi] / 1e3 / float64(pb.g.probeHi)
	// The loops below run inside an engine run; its start-up is taken off.
	perCall := func(procs int, d time.Duration) float64 {
		return math.Max(ns(d)-spawn[procs], 0) / float64(procs*rounds)
	}
	// Every proc advances a little and syncs: each Sync parks the caller
	// behind a proc with an earlier clock, one scheduler hand-off.
	pb.scaled("sim.handoff_ns", "sim.handoff_scale_exp", 3, func(procs int) float64 {
		return perCall(procs, simRun(procs, pb.seed, func(p *sim.Proc) {
			step := 1e-6 * (1 + float64(p.ID()%7)/7)
			for i := 0; i < rounds; i++ {
				p.Advance(step)
				p.Sync()
			}
		}))
	})
	pb.scaled("sim.msg_ns", "", 3, func(procs int) float64 {
		return perCall(procs, simRun(procs, pb.seed, func(p *sim.Proc) {
			next, prev := (p.ID()+1)%procs, (p.ID()+procs-1)%procs
			for i := 0; i < rounds; i++ {
				p.Send(next, 1, nil, p.Now()+1e-6)
				p.Recv(prev, 1)
			}
		}))
	})
	// A device ledger under the booking pattern a storage target sees: an
	// advancing front, requests landing a few slots either side of it, the
	// ledger trimmed behind the front as lustre does.
	pb.vals["sim.resource_acquire_ns"] = pb.measure("sim.resource_acquire_ns", 3, func() float64 {
		const bookings = 100_000
		rng := rand.New(rand.NewSource(pb.seed))
		res := sim.NewResource("probe")
		front := 0.0
		t0 := time.Now()
		for i := 0; i < bookings; i++ {
			front += 1e-3
			res.Acquire(math.Max(front+(rng.Float64()-0.5)*8e-3, 0), 0.4e-3)
			if i%1024 == 1023 {
				res.Trim(front - 16e-3)
			}
		}
		return ns(time.Since(t0)) / bookings
	})
}

// --- mpi ---------------------------------------------------------------------

func (pb *prober) mpiProbes() {
	p := benchPreset(pb.seed, 1)
	pb.scaled("mpi.run_us_per_rank", "", 3, func(procs int) float64 {
		t0 := time.Now()
		mpi.Run(procs, p.Cluster, p.Seed, func(r *mpi.Rank) { mpi.WorldComm(r).Barrier() })
		return ns(time.Since(t0)) / 1e3 / float64(procs)
	})
	// coll times calls repetitions of one collective, per rank-call.
	coll := func(name, expName string, calls int, mk func(r *mpi.Rank, comm *mpi.Comm) func()) {
		pb.scaled(name, expName, 2, func(procs int) float64 {
			d := inRun(p, procs, func(r *mpi.Rank, comm *mpi.Comm) func() {
				one := mk(r, comm)
				return func() {
					for i := 0; i < calls; i++ {
						one()
					}
				}
			})
			return ns(d) / float64(procs*calls)
		})
	}
	coll("mpi.barrier_ns", "", 40, func(_ *mpi.Rank, comm *mpi.Comm) func() {
		return comm.Barrier
	})
	coll("mpi.allreduce_ns", "", 40, func(_ *mpi.Rank, comm *mpi.Comm) func() {
		v := []int64{1}
		return func() { comm.AllreduceInt64(v, mpi.OpSum) }
	})
	coll("mpi.allgather_ns", "mpi.allgather_scale_exp", 8, func(_ *mpi.Rank, comm *mpi.Comm) func() {
		v := []int64{int64(comm.Rank())}
		return func() { comm.AllgatherInt64s(v) }
	})
	coll("mpi.alltoall_ints_ns", "mpi.alltoall_ints_scale_exp", 8, func(_ *mpi.Rank, comm *mpi.Comm) func() {
		v := make([]int, comm.Size())
		return func() { comm.AlltoallInts(v) }
	})
	// The exchange phase's shape: every rank has a piece for each of 64
	// aggregators spread evenly over the communicator.
	coll("mpi.alltoallv_ns", "mpi.alltoallv_scale_exp", 2, func(_ *mpi.Rank, comm *mpi.Comm) func() {
		n := comm.Size()
		aggs := min(64, n)
		return func() {
			send := make([][]byte, n) // Alltoallv takes ownership of the blocks
			for a := 0; a < aggs; a++ {
				send[a*n/aggs] = make([]byte, 64)
			}
			comm.Alltoallv(send, mpi.AlltoallvDirect)
		}
	})
	coll("mpi.p2p_ns", "", 40, func(_ *mpi.Rank, comm *mpi.Comm) func() {
		n, me := comm.Size(), comm.Rank()
		return func() { comm.Sendrecv((me+1)%n, make([]byte, 1024), (me+n-1)%n, 7) }
	})
	coll("mpi.split_ns", "mpi.split_scale_exp", 4, func(_ *mpi.Rank, comm *mpi.Comm) func() {
		n, me := comm.Size(), comm.Rank()
		colour := me * min(64, n) / n
		return func() { comm.Split(colour, me) }
	})
}

// --- datatype ------------------------------------------------------------------

func (pb *prober) datatypeProbes() {
	p := benchPreset(pb.seed, 1)
	tile := p.Tile.View(pb.g.tileProcs/2, pb.g.tileProcs)
	btProcs := pb.g.tenantProcs[1]
	bt := p.BT.View(btProcs/2, btProcs)
	btBytes := p.BT.DumpBytes(btProcs)
	pb.vals["datatype.map_ns_per_seg"] = pb.measure("datatype.map_ns_per_seg", 5, func() float64 {
		segs := 0
		t0 := time.Now()
		for i := 0; i < 200; i++ {
			segs += len(tile.Map(0, p.Tile.TileBytes())) + len(bt.Map(0, btBytes))
		}
		return ns(time.Since(t0)) / float64(segs)
	})
}

// --- mpiio ---------------------------------------------------------------------

func (pb *prober) mpiioProbes() error {
	p := benchPreset(pb.seed, 1)
	// One collective write and one collective read of the tile view on the
	// world communicator; rank 0 stamps the boundary between the two.
	readUs := map[int]float64{}
	pb.scaled("mpiio.write_all_us_per_rank", "mpiio.write_all_scale_exp", 2, func(procs int) float64 {
		env := experiments.EnvFor(p, p.TileScale, core.Options{})
		var mid time.Time
		var start time.Time
		d := inRun(p, procs, func(r *mpi.Rank, comm *mpi.Comm) func() {
			f := mpiio.Open(comm, env.FS, "probe", env.Stripe, env.Opts.Hints)
			f.SetView(p.Tile.View(r.WorldRank(), procs))
			data := make([]byte, p.Tile.TileBytes())
			workload.Fill(data, r.WorldRank(), 0)
			return func() {
				if r.WorldRank() == 0 {
					start = time.Now()
				}
				f.WriteAtAll(0, data)
				comm.Barrier()
				if r.WorldRank() == 0 {
					mid = time.Now()
				}
				f.ReadAtAll(0, int64(len(data)))
			}
		})
		write := mid.Sub(start)
		readUs[procs] = ns(d-write) / 1e3 / float64(procs)
		return ns(write) / 1e3 / float64(procs)
	})
	pb.vals["mpiio.read_all_us_per_rank"] = readUs[pb.g.probeHi]

	// The round loop's other three variants, through the runners that own
	// them; no end-to-end workload runs these.
	n := pb.g.probeProcs
	pb.vals["mpiio.split_sweep_ms"] = pb.measure("mpiio.split_sweep_ms", 1, func() float64 {
		return timeMs(func() { p.OverlapSweep(n, probeGroups(n), 4, []float64{1}, nil) })
	})
	pes := 16
	if n < 64 {
		pes = 4
	}
	pb.vals["mpiio.hier_write_ms"] = pb.measure("mpiio.hier_write_ms", 1, func() float64 {
		return timeMs(func() { p.IntraNodePoint(n, max(2, n/32), pes, true) })
	})
	plan, err := fault.Scenario(fault.OneAggCrash)
	if err != nil {
		return err
	}
	var unverified bool
	pb.vals["mpiio.resilient_write_ms"] = pb.measure("mpiio.resilient_write_ms", 2, func() float64 {
		return timeMs(func() {
			if pt := p.TileUnderFailure(n, 1, plan); !pt.Verified {
				unverified = true
			}
		})
	})
	if unverified {
		return fmt.Errorf("probe mpiio.resilient_write_ms: tile read-back after %s failed", plan.Name)
	}
	return nil
}

// --- core ----------------------------------------------------------------------

func (pb *prober) coreProbes() {
	p := benchPreset(pb.seed, 1)
	// core.Open is lazy: the partition (FA gather, aggregator distribution,
	// Comm.Split, the subgroup's mpiio open) happens on first use, which an
	// empty independent write forces without moving data.
	pb.scaled("core.open_us_per_rank", "core.open_scale_exp", 2, func(procs int) float64 {
		env := experiments.EnvFor(p, p.TileScale, core.Options{NumGroups: probeGroups(procs)})
		d := inRun(p, procs, func(r *mpi.Rank, comm *mpi.Comm) func() {
			view := p.Tile.View(r.WorldRank(), procs)
			return func() {
				f := core.Open(comm, env.FS, "probe", env.Stripe, env.Opts)
				f.SetView(view)
				f.WriteAt(0, nil)
				f.Close()
			}
		})
		return ns(d) / 1e3 / float64(procs)
	})
	procs := pb.g.probeHi
	groups := make([][]int, probeGroups(procs))
	for r := 0; r < procs; r++ {
		i := r * len(groups) / procs
		groups[i] = append(groups[i], r)
	}
	nodes := make([]int, procs/2)
	for i := range nodes {
		nodes[i] = i
	}
	pb.vals["core.distribute_aggs_us"] = pb.measure("core.distribute_aggs_us", 5, func() float64 {
		const calls = 50
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			core.DistributeAggregators(groups, func(rank int) int { return rank / 2 }, nodes)
		}
		return ns(time.Since(t0)) / 1e3 / calls
	})
}

// --- storage family ------------------------------------------------------------

func (pb *prober) storageProbes() {
	p := storagePreset(pb.seed, 1)
	// One rank, so Sync never switches procs: what is left is the backend's
	// own cost per extent, entered through core.File as applications do.
	const pieces, passes = smallBlock / smallTransfer, 10
	view := datatype.View{Filetype: datatype.NewVector(pieces, smallTransfer, 2*smallTransfer)}
	for _, b := range backends {
		q := p
		q.Backend = b
		metric := layerOf[b] + ".req_ns"
		pb.vals[metric] = pb.measure(metric, 3, func() float64 {
			env := experiments.EnvFor(q, q.IORScale, core.Options{})
			d := inRun(q, 1, func(_ *mpi.Rank, comm *mpi.Comm) func() {
				f := core.Open(comm, env.FS, "probe", env.Stripe, env.Opts)
				f.SetView(view)
				buf := make([]byte, smallBlock)
				return func() {
					for i := 0; i < passes; i++ {
						f.WriteAt(0, buf)
						f.ReadAt(0, smallBlock)
					}
				}
			})
			return ns(d) / (passes * 2 * pieces)
		})
	}

	rng := rand.New(rand.NewSource(pb.seed))
	const nExt = 1000
	mk := func() []storage.Extent {
		exts := make([]storage.Extent, nExt)
		for i := range exts {
			exts[i] = storage.Extent{Off: rng.Int63n(1 << 20), Len: 1 + rng.Int63n(512)}
		}
		return exts
	}
	a, b := mk(), mk()
	pb.vals["storage.extent_algebra_ns"] = pb.measure("storage.extent_algebra_ns", 5, func() float64 {
		const calls = 100
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			ca, cb := storage.Coalesce(a), storage.Coalesce(b)
			storage.Intersect(ca, cb)
			storage.Subtract(ca, cb)
		}
		return ns(time.Since(t0)) / (calls * 2 * nExt) // per input extent
	})
	pb.vals["qos.admit_ns"] = pb.measure("qos.admit_ns", 5, func() float64 {
		const calls = 200_000
		pol := qos.NewFairShare(0)
		at := 0.0
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			at += 1e-5
			pol.Admit(i%72, i%4, at, 1e-4)
		}
		return ns(time.Since(t0)) / calls
	})

	// The storage workload's legs one backend at a time: a gain on one
	// backend is diluted three times over in the workload's wall time and
	// whole here.
	n := pb.g.probeProcs
	for _, b := range backends {
		metric := layerOf[b] + ".smallreq_ms"
		pb.vals[metric] = pb.measure(metric, 1, func() float64 {
			return timeMs(func() { p.BackendSweep(n, []string{b}) })
		})
	}
	pb.vals["storage.burst_ms"] = pb.measure("storage.burst_ms", 1, func() float64 {
		return timeMs(func() { p.CheckpointBurst(n, 1, backends) })
	})
}

// --- obs -----------------------------------------------------------------------

func (pb *prober) obsProbes() {
	p := benchPreset(pb.seed, 1)
	n := pb.g.probeProcs
	groups := probeGroups(n)
	var perEvent float64
	on := pb.measure("obs.on", 3, func() float64 {
		t0 := time.Now()
		o := experiments.ObservedTileWrite(p, n, groups, nil)
		d := ns(time.Since(t0))
		t0 = time.Now()
		if _, err := o.Perfetto(); err == nil && o.Trace.Len() > 0 {
			perEvent = ns(time.Since(t0)) / float64(o.Trace.Len())
		}
		return d
	})
	bare := pb.measure("obs.bare", 3, func() float64 {
		t0 := time.Now()
		env := experiments.EnvFor(p, p.TileScale, core.Options{NumGroups: groups})
		mpi.RunPlanWorkers(n, p.Cluster, p.Seed, nil, p.Workers, func(r *mpi.Rank) {
			p.Tile.Write(r, env, "tile")
		})
		return ns(time.Since(t0))
	})
	pb.vals["obs.on_wall_ratio"] = on / bare
	pb.vals["obs.perfetto_ns_per_event"] = perEvent
}
