package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// geometry is the size every workload and probe runs at. The numbers a
// benchmark run reports are taken at full; smoke is the same code at toy
// size, for the package's tests.
type geometry struct {
	name         string
	tileProcs    int    // the two tile workloads
	groups       int    // ParColl subgroups of parcoll-rw
	storageProcs int    // both storage legs
	tenantProcs  [4]int // tile-hog, btio (a square), ior, checkpoint
	tenantGroups [4]int
	probeLo      int // probes run at both sizes; *_scale_exp compares them
	probeHi      int
	probeProcs   int  // the mpiio variants and the storage-leg probes
	oneRep       bool // probes run once, not for a median
}

var (
	full = geometry{
		name: "full", tileProcs: 1024, groups: 64, storageProcs: 256,
		tenantProcs: [4]int{128, 64, 32, 32}, tenantGroups: [4]int{8, 4, 4, 4},
		probeLo: 256, probeHi: 1024, probeProcs: 256,
	}
	smoke = geometry{
		name: "smoke", tileProcs: 16, groups: 4, storageProcs: 16,
		tenantProcs: [4]int{8, 4, 2, 2}, tenantGroups: [4]int{2, 2, 1, 1},
		probeLo: 16, probeHi: 16, probeProcs: 16, oneRep: true,
	}
)

var backends = []string{"lustre", "listio", "bb"}

// layerOf names the package behind each backend flag value.
var layerOf = map[string]string{"lustre": "lustre", "listio": "pvfs", "bb": "bb"}

// opResult is what one op hands back to the harness.
type opResult struct {
	outputs   []string           // every virtual output, "name=hexfloat"; the physics digest hashes these
	virtBytes float64            // virtual (paper-sized) bytes the op moved
	virtSecs  float64            // virtual seconds it took; 0 when the runner does not say
	stats     *sim.Stats         // the engine's counters; nil where the runner drops them
	layer     map[string]float64 // virtual and exact per-layer numbers of this op
	err       error              // in-run verification failure
}

func (o *opResult) out(name string, v float64) {
	o.outputs = append(o.outputs, name+"="+strconv.FormatFloat(v, 'x', -1, 64))
}

// digest is the sha256 of the op's virtual outputs in hex-float form: equal
// digests mean bit-identical physics.
func (o *opResult) digest() string {
	sum := sha256.Sum256([]byte(strings.Join(o.outputs, "\n")))
	return hex.EncodeToString(sum[:])
}

// instance is one workload, set up for one seed and geometry.
type instance struct {
	// op runs the repo's own runner once on the engine with that many
	// workers; the host end-to-end metrics time exactly this call.
	op func(workers int) opResult
	// traced runs the same op from the harness's own body, so that spans
	// can be recorded around each call into a layer (tr may be nil) and,
	// when reg is not nil, the mpi ranks count into it. Its digest must
	// equal op's. Its virtBytes and virtSecs are the op's virtual size and
	// duration; a runner that does not report them leaves them to this one.
	traced func(tr *tracer, parent spanRef, reg *obs.Registry) opResult
	// check is the untimed byte-exact verification run once per set-up.
	check func() error
}

type workloadDef struct {
	name, why string
	setup     func(seed int64, g geometry) *instance
}

var workloads = []workloadDef{
	{"wall-1024", "unpartitioned collective tile write on the world communicator: world-size mpi collectives and mpiio planning do the most work, storage is idle", setupWall},
	{"parcoll-rw-1024", "same data in 64 ParColl subgroups, write then read: work moves to core, datatype and small communicators; its write bandwidth over wall-1024's is the paper's speedup", setupParColl},
	{"storage-3be-256", "fine-grained independent I/O and checkpoint bursts on lustre, listio and bb: sim hand-offs and the storage family dominate, mpi does almost nothing", setupStorage},
	{"tenants-4job", "four mixed jobs on one shared machine under fair QoS: job, tenancy and qos over all workload kinds, short ops where spawn cost shows", setupTenants},
}

func benchPreset(seed int64, workers int) experiments.Preset {
	p := experiments.BenchPreset()
	p.Seed = seed
	p.Workers = workers
	return p
}

// onRank0 runs f, inside a span when the caller is world rank 0. Every rank
// sits in the same collective phase, so rank 0's interval is the phase's
// host time.
func onRank0(r *mpi.Rank, tr *tracer, parent spanRef, name string, f func()) {
	if r.WorldRank() != 0 {
		f()
		return
	}
	s := tr.begin(name, parent)
	f()
	s.end()
}

func attach(r *mpi.Rank, reg *obs.Registry) {
	if reg != nil {
		r.SetObs(reg)
	}
}

const mb = 1e6

// --- wall-1024 -------------------------------------------------------------

func setupWall(seed int64, g geometry) *instance {
	n := g.tileProcs
	// The runner reports only the mean per-rank breakdown; the harness's own
	// body also sees the write's global elapsed time, the denominator that
	// makes this workload's bandwidth comparable with parcoll-rw-1024's.
	result := func(p experiments.Preset, bd mpiio.Breakdown, st sim.Stats, elapsed float64) opResult {
		o := opResult{stats: &st}
		o.out("sync_s", bd.Sync)
		o.out("exchange_s", bd.Exchange)
		o.out("io_s", bd.IO)
		o.out("other_s", bd.Other)
		o.out("sim_events", float64(st.Events()))
		o.virtBytes = float64(p.Tile.TileBytes()) * float64(n) * p.TileScale
		o.virtSecs = elapsed
		o.layer = map[string]float64{
			"mpiio.virt_sync_share": bd.Sync / bd.Total(),
			"mpiio.virt_exchange_s": bd.Exchange,
			"mpiio.virt_io_s":       bd.IO,
		}
		if elapsed > 0 {
			o.layer["mpiio.virt_write_bw_MBps"] = o.virtBytes / elapsed / mb
		}
		return o
	}
	return &instance{
		op: func(workers int) opResult {
			p := benchPreset(seed, workers)
			pt, st := p.CollectiveWallStats(n)
			return result(p, pt.Breakdown, st, 0)
		},
		traced: func(tr *tracer, parent spanRef, reg *obs.Registry) opResult {
			p := benchPreset(seed, 1)
			s := tr.begin("build-env", parent)
			env := experiments.EnvFor(p, p.TileScale, core.Options{})
			s.end()
			var bd mpiio.Breakdown
			var elapsed float64
			s = tr.begin("engine-run", parent)
			_, st := mpi.RunPlanWorkers(n, p.Cluster, p.Seed, nil, p.Workers, func(r *mpi.Rank) {
				attach(r, reg)
				var res workload.Result
				onRank0(r, tr, s, "Tile.Write", func() { res = p.Tile.Write(r, env, "tile") })
				m := workload.MeanBreakdown(mpi.WorldComm(r), res.Breakdown)
				if r.WorldRank() == 0 {
					bd, elapsed = m, res.Elapsed
				}
			})
			s.end()
			return result(p, bd, st, elapsed)
		},
		check: func() error {
			return experiments.VerifyTile(benchPreset(seed, 1), n, core.Options{})
		},
	}
}

// --- parcoll-rw-1024 -------------------------------------------------------

func setupParColl(seed int64, g geometry) *instance {
	n, groups := g.tileProcs, g.groups
	result := func(p experiments.Preset, pt experiments.GroupPoint) opResult {
		var o opResult
		o.out("write_bw", pt.WriteBW)
		o.out("read_bw", pt.ReadBW)
		o.out("sync_s", pt.Sync)
		o.out("sync_share", pt.SyncShare)
		o.out("mode", float64(pt.Mode))
		bytes := float64(p.Tile.TileBytes()) * float64(n) * p.TileScale
		o.virtBytes = 2 * bytes
		o.virtSecs = bytes/pt.WriteBW + bytes/pt.ReadBW
		o.layer = map[string]float64{
			"mpiio.virt_sync_share":    pt.SyncShare,
			"mpiio.virt_write_bw_MBps": pt.WriteBW / mb,
			"mpiio.virt_read_bw_MBps":  pt.ReadBW / mb,
		}
		return o
	}
	return &instance{
		op: func(workers int) opResult {
			p := benchPreset(seed, workers)
			return result(p, p.TileGroupSweep(n, []int{groups})[0])
		},
		traced: func(tr *tracer, parent spanRef, reg *obs.Registry) opResult {
			p := benchPreset(seed, 1)
			s := tr.begin("build-env", parent)
			env := experiments.EnvFor(p, p.TileScale, core.Options{NumGroups: groups})
			s.end()
			pt := experiments.GroupPoint{Groups: groups}
			var wm mpiio.Breakdown
			s = tr.begin("engine-run", parent)
			_, st := mpi.RunPlanWorkers(n, p.Cluster, p.Seed, nil, p.Workers, func(r *mpi.Rank) {
				attach(r, reg)
				var wres, rres workload.Result
				onRank0(r, tr, s, "Tile.Write", func() { wres = p.Tile.Write(r, env, "tile") })
				onRank0(r, tr, s, "Tile.Read", func() { rres = p.Tile.Read(r, env, "tile") })
				m := workload.MeanBreakdown(mpi.WorldComm(r), wres.Breakdown)
				if r.WorldRank() == 0 {
					wm = m
					pt.WriteBW, pt.ReadBW = wres.Bandwidth(), rres.Bandwidth()
					pt.Mode, pt.Sync = wres.Plan.Mode, m.Sync
					if t := m.Total(); t > 0 {
						pt.SyncShare = m.Sync / t
					}
				}
			})
			s.end()
			o := result(p, pt)
			o.stats = &st
			o.layer["mpiio.virt_exchange_s"] = wm.Exchange
			o.layer["mpiio.virt_io_s"] = wm.IO
			return o
		},
		check: func() error {
			return experiments.VerifyTile(benchPreset(seed, 1), n, core.Options{NumGroups: groups})
		},
	}
}

// --- storage-3be-256 -------------------------------------------------------

// Strided IOR of 64 KB per rank in 64 B pieces: at 256 ranks about half a
// million storage requests per backend, write plus read-back.
const (
	smallBlock    = 64 << 10
	smallTransfer = 64
	burstSteps    = 4 // experiments.CheckpointBurst's dump count
)

func storagePreset(seed int64, workers int) experiments.Preset {
	p := benchPreset(seed, workers)
	p.IORBlock, p.IORTransfer = smallBlock, smallTransfer
	return p
}

func setupStorage(seed int64, g geometry) *instance {
	n := g.storageProcs
	result := func(small []experiments.BackendPoint, burst []experiments.BurstPoint) opResult {
		var o opResult
		o.layer = map[string]float64{}
		for _, pt := range small {
			o.out("small."+pt.Backend+".elapsed", pt.Elapsed)
			o.out("small."+pt.Backend+".bw", pt.BW)
			o.out("small."+pt.Backend+".requests", float64(pt.Requests))
			o.out("small."+pt.Backend+".virt_bytes", float64(pt.VirtBytes))
			o.virtBytes += pt.BW * pt.Elapsed
			o.virtSecs += pt.Elapsed
		}
		for _, pt := range burst {
			o.out("burst."+pt.Backend+".write_s", pt.WriteSecs)
			o.out("burst."+pt.Backend+".drain_s", pt.DrainSecs)
			o.out("burst."+pt.Backend+".elapsed", pt.Elapsed)
			o.out("burst."+pt.Backend+".bw", pt.BW)
			o.virtBytes += pt.BW * pt.Elapsed
			o.virtSecs += pt.Elapsed
		}
		lu, li := small[0], small[1]
		o.layer["lustre.requests_per_op"] = float64(lu.Requests)
		o.layer["pvfs.requests_per_op"] = float64(li.Requests)
		// List I/O's whole point: fewer server round-trips for the same
		// bytes served by the targets.
		if li.Requests >= lu.Requests || li.VirtBytes != lu.VirtBytes {
			o.err = fmt.Errorf("listio served %d requests / %d bytes, lustre %d / %d: want strictly fewer requests, equal bytes",
				li.Requests, li.VirtBytes, lu.Requests, lu.VirtBytes)
		}
		return o
	}
	return &instance{
		op: func(workers int) opResult {
			p := storagePreset(seed, workers)
			return result(p.BackendSweep(n, backends), p.CheckpointBurst(n, 1, backends))
		},
		traced: func(tr *tracer, parent spanRef, reg *obs.Registry) opResult {
			p := storagePreset(seed, 1)
			var stats sim.Stats
			run := func(q experiments.Preset, leg spanRef, body func(r *mpi.Rank, run spanRef)) {
				s := tr.begin("engine-run", leg)
				_, st := mpi.RunPlanWorkers(n, q.Cluster, q.Seed, nil, q.Workers, func(r *mpi.Rank) {
					attach(r, reg)
					body(r, s)
				})
				s.end()
				addStats(&stats, st)
			}
			env := func(q experiments.Preset, scale float64, leg spanRef) workload.Env {
				s := tr.begin("build-env", leg)
				defer s.end()
				return experiments.EnvFor(q, scale, core.Options{})
			}

			var small []experiments.BackendPoint
			for _, b := range backends {
				leg := tr.begin("smallreq:"+b, parent)
				q := p
				q.Backend = b
				e := env(q, q.IORScale, leg)
				w := workload.IOR{Block: q.IORBlock, Transfer: q.IORTransfer, Strided: true}
				pt := experiments.BackendPoint{Backend: b}
				var bad error
				run(q, leg, func(r *mpi.Rank, s spanRef) {
					var res workload.Result
					onRank0(r, tr, s, "IOR.WriteIndependent", func() { res = w.WriteIndependent(r, e, "bsweep") })
					onRank0(r, tr, s, "IOR.Verify", func() {
						if off := w.Verify(r, e, "bsweep"); off >= 0 {
							bad = fmt.Errorf("backend %s: rank %d data mismatch at %d", b, r.WorldRank(), off)
						}
					})
					if r.WorldRank() == 0 {
						pt.Elapsed, pt.BW = res.Elapsed, res.Bandwidth()
					}
				})
				if bad != nil {
					return opResult{err: bad}
				}
				for _, st := range e.FS.Stats() {
					pt.Requests += st.Requests
					pt.VirtBytes += st.Bytes
				}
				small = append(small, pt)
				leg.end()
			}

			ckpt := workload.CheckpointBurst{BlockBytes: p.Tile.TileBytes(), Steps: burstSteps, Interleave: p.BurstInterleave}
			leg := tr.begin("burst:reference", parent)
			ref := p
			ref.Backend = "lustre"
			refEnv := env(ref, ref.TileScale, leg)
			var refPerStep float64
			run(ref, leg, func(r *mpi.Rank, s spanRef) {
				onRank0(r, tr, s, "Checkpoint.Run", func() {
					res := ckpt.Run(r, refEnv, "ckpt-ref")
					if r.WorldRank() == 0 {
						refPerStep = res.WriteSecs / float64(ckpt.Steps)
					}
				})
			})
			leg.end()
			ckpt.Compute = 1 * refPerStep // ratio 1: a whole I/O time of compute per step

			var burst []experiments.BurstPoint
			for _, b := range backends {
				leg := tr.begin("burst:"+b, parent)
				q := p
				q.Backend = b
				e := env(q, q.TileScale, leg)
				pt := experiments.BurstPoint{Backend: b, Ratio: 1}
				var bad error
				run(q, leg, func(r *mpi.Rank, s spanRef) {
					var res workload.CheckpointResult
					onRank0(r, tr, s, "Checkpoint.Run", func() { res = ckpt.Run(r, e, "ckpt") })
					onRank0(r, tr, s, "Checkpoint.Verify", func() {
						if err := ckpt.Verify(r, e, "ckpt"); err != nil {
							bad = fmt.Errorf("backend %s: checkpoint read-back: %w", b, err)
						}
					})
					if r.WorldRank() == 0 {
						pt.WriteSecs, pt.DrainSecs = res.WriteSecs, res.DrainSecs
						pt.Elapsed, pt.BW = res.Elapsed, res.Bandwidth()
					}
				})
				if bad != nil {
					return opResult{err: bad}
				}
				burst = append(burst, pt)
				leg.end()
			}
			o := result(small, burst)
			o.stats = &stats
			return o
		},
		check: func() error { return nil }, // both legs verify every byte inside the op
	}
}

// addStats folds one engine run's counters into an op that makes several.
func addStats(dst *sim.Stats, st sim.Stats) {
	dst.Resumes.Add(st.Resumes.Value())
	dst.Sends.Add(st.Sends.Value())
	dst.Recvs.Add(st.Recvs.Value())
	dst.WildcardScanned.Add(st.WildcardScanned.Value())
	if st.MaxReadyDepth > dst.MaxReadyDepth {
		dst.MaxReadyDepth = st.MaxReadyDepth
	}
}

// --- tenants-4job ----------------------------------------------------------

// tenantTrace is the BENCH_10 trace: four mixed jobs with staggered
// arrivals on one shared lustre under fair-share QoS.
func tenantTrace(seed int64, workers int, g geometry) tenancy.Trace {
	pr, gr := g.tenantProcs, g.tenantGroups
	return tenancy.Trace{
		Jobs: []job.Spec{
			{Name: "tile-hog", Workload: job.WorkloadTileIO, Procs: pr[0], Groups: gr[0]},
			{Name: "btio", Workload: job.WorkloadBTIO, Procs: pr[1], Groups: gr[1], Arrival: 0.002, Steps: 2},
			{Name: "ior", Workload: job.WorkloadIOR, Procs: pr[2], Groups: gr[2], Arrival: 0.004},
			{Name: "ckpt", Workload: job.WorkloadCheckpoint, Procs: pr[3], Groups: gr[3],
				Arrival: 0.006, Steps: 2, BlockBytes: 4 << 10, Interleave: 1 << 10},
		},
		Policy:  "fair",
		Seed:    seed,
		Workers: workers,
	}
}

func setupTenants(seed int64, g geometry) *instance {
	run := func(workers int) opResult {
		rep, err := tenancy.Run(benchPreset(seed, workers), tenantTrace(seed, workers, g))
		if err != nil {
			return opResult{err: err}
		}
		var o opResult
		var qosDelay float64
		o.out("makespan", rep.End)
		for _, j := range rep.Jobs {
			o.out(j.Name+".end", j.End)
			o.out(j.Name+".bw", j.BW)
			o.out(j.Name+".p50", j.P50)
			o.out(j.Name+".p99", j.P99)
			o.out(j.Name+".qos_delay", j.QoSDelaySecs)
			o.out(j.Name+".bytes", float64(j.Bytes))
			o.out(j.Name+".coll_calls", float64(j.CollCalls))
			o.virtBytes += float64(j.Bytes)
			qosDelay += j.QoSDelaySecs
			if !j.Verified && o.err == nil {
				o.err = fmt.Errorf("tenant %s: read-back verification failed", j.Name)
			}
		}
		o.virtSecs = rep.End
		o.layer = map[string]float64{
			"tenancy.virt_makespan_s": rep.End,
			"tenancy.virt_hog_p99_ms": rep.Jobs[0].P99 * 1e3,
			"tenancy.qos_delay_s":     qosDelay,
		}
		return o
	}
	return &instance{
		op: run,
		// tenancy.Run owns the whole engine run and hands out neither its
		// ranks nor its engine counters, so the traced op is the same call
		// inside one span.
		traced: func(tr *tracer, parent spanRef, _ *obs.Registry) opResult {
			s := tr.begin("engine-run", parent)
			defer s.end()
			return run(1)
		},
		check: func() error { return nil }, // every tenant reads its files back inside the op
	}
}
