package tenancy

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// JobReport is one tenant's outcome, with the interference attribution the
// shared servers recorded for it.
type JobReport struct {
	job.Result
	// QoSDelaySecs is the admission delay the policy charged this job,
	// summed over every request (zero under FIFO).
	QoSDelaySecs float64 `json:"qos_delay_secs"`
	// Retry is the job's retry-engine record under fault injection (zero
	// on healthy traces).
	Retry recovery.RetryStats `json:"retry"`
}

// Report is one trace run: the policy that shaped it, the per-job reports
// in trace order, and the makespan.
type Report struct {
	Policy string      `json:"policy"`
	Procs  int         `json:"procs"`
	End    float64     `json:"end"`
	Jobs   []JobReport `json:"jobs"`
}

// FillObs writes the report's per-job metrics into a registry under
// "job/<name>/" prefixes — the multi-tenant twin of CaptureLustre's
// "lustre." namespace, so one snapshot carries both the shared-server view
// and the per-tenant view.
func (rep Report) FillObs(reg *obs.Registry) {
	for _, j := range rep.Jobs {
		p := "job/" + j.Name + "/"
		reg.Gauge(p + "elapsed_secs").Set(j.Elapsed())
		reg.Gauge(p + "bw").Set(j.BW)
		reg.Gauge(p + "coll_p50").Set(j.P50)
		reg.Gauge(p + "coll_p99").Set(j.P99)
		reg.Gauge(p + "qos_delay_secs").Set(j.QoSDelaySecs)
		if j.Slowdown > 0 {
			reg.Gauge(p + "slowdown").Set(j.Slowdown)
		}
		reg.Counter(p + "coll_calls").Add(uint64(j.CollCalls))
	}
}

// Run executes the trace on one shared machine and returns the per-job
// reports. The preset supplies machine geometry and workload scales (its
// per-run knobs — seed, backend — are overridden by the trace's).
// Deterministic: bit-identical across repeats.
func Run(p experiments.Preset, t Trace) (Report, error) {
	return run(p, t, nil)
}

// RunObserved is Run with an observability registry attached: the report's
// per-job gauges (FillObs) and the shared backend's "lustre." counters —
// including the per-JobID retry buckets — land in reg alongside the result.
func RunObserved(p experiments.Preset, t Trace, reg *obs.Registry) (Report, error) {
	return run(p, t, reg)
}

func run(p experiments.Preset, t Trace, reg *obs.Registry) (Report, error) {
	t = t.WithDefaults()
	if err := t.Validate(); err != nil {
		return Report{}, err
	}

	// The trace owns the machine-level knobs the single-job tools set via
	// flags; thread them through the same spec path the tools use.
	machine := job.Spec{
		Workload:   job.WorkloadTileIO, // placeholder: machine knobs only
		Procs:      t.Procs(),
		Seed:       t.Seed,
		Backend:    t.Backend,
		BBCapacity: t.BBCapacity,
		BBDrainBW:  t.BBDrainBW,
		PEsPerNode: t.PEsPerNode,
		IntraNode:  t.IntraNode,
	}
	if err := p.ApplySpec(machine); err != nil {
		return Report{}, err
	}
	var plan *fault.Plan
	if t.Scenario != "" {
		var err error
		plan, err = fault.Scenario(t.Scenario)
		if err != nil {
			return Report{}, err
		}
	}
	p.Fault = plan

	// All tenants share one cost scale — the tile preset's, the divisor the
	// checkpoint sweeps already use — because a shared backend has a single
	// virtual-bytes-per-real-byte factor. Cross-workload bandwidths in a
	// trace are therefore comparable to each other and to the same job run
	// isolated AT THIS SCALE, not to the single-job figures' native scales.
	fs, envOf := p.TraceEnv(p.TileScale, plan)
	pol, err := qos.New(t.Policy)
	if err != nil {
		return Report{}, err
	}
	fs.SetQoS(pol)

	// Contiguous rank packing, no node padding: members[j] lists job j's
	// world ranks; boundary nodes may carry two jobs (shared NIC).
	njobs := len(t.Jobs)
	members := make([][]int, njobs)
	jobOf := make([]int, t.Procs())
	next := 0
	for j, s := range t.Jobs {
		m := make([]int, s.Procs)
		for i := range m {
			m[i] = next
			jobOf[next] = j
			next++
		}
		members[j] = m
	}

	// Per-job environments over the shared FS: own options (groups, hints),
	// own latency recorder, own file-name prefix.
	envs := make([]workload.Env, njobs)
	recs := make([]*obs.LatencyRecorder, njobs)
	works := make([]workload.Workload, njobs)
	for j, s := range t.Jobs {
		w, _, err := experiments.WorkloadFor(p, s)
		if err != nil {
			return Report{}, err
		}
		works[j] = w
		recs[j] = obs.NewLatencyRecorder()
		opts := experiments.OptionsFor(s)
		opts.Lat = recs[j]
		envs[j] = envOf(opts)
	}

	ends := make([]float64, njobs)
	bytes := make([]int64, njobs)
	fails := make([]int64, njobs)
	end, _ := mpi.RunPlan(t.Procs(), p.Cluster, p.Seed, plan, func(r *mpi.Rank) {
		j := jobOf[r.WorldRank()]
		s := t.Jobs[j]
		r.SetJob(j, members[j])
		if s.Arrival > 0 {
			// Unscaled by straggler plans: arrival is trace input, not noise.
			r.P.AdvanceTo(s.Arrival)
		}
		// Write, then byte-exact read-back verification, all in virtual time.
		w, env, name := works[j], envs[j], "job:"+s.Name
		res := w.Write(r, env, name)
		verr := w.Check(r, env, name)
		comm := mpi.WorldComm(r)
		bad := int64(0)
		if verr != nil {
			bad = 1
		}
		nbad := comm.AllreduceInt64([]int64{bad}, mpi.OpSum)[0]
		fin := comm.MaxFinishTime()
		if r.JobRank() == 0 {
			ends[j] = fin
			bytes[j] = res.VirtBytes
			fails[j] = nbad
		}
	})

	usage := pol.Usage()
	byJob := fs.RetryStatsByJob()
	rep := Report{Policy: pol.Name(), Procs: t.Procs(), End: end, Jobs: make([]JobReport, njobs)}
	for j, s := range t.Jobs {
		res := job.Result{
			Name:     s.Name,
			Workload: s.Workload,
			Procs:    s.Procs,
			Arrival:  s.Arrival,
			End:      ends[j],
			Bytes:    bytes[j],
			Verified: fails[j] == 0,
		}
		if el := res.Elapsed(); el > 0 {
			res.BW = float64(bytes[j]) / el
		}
		if rec := recs[j]; rec.Count() > 0 {
			res.CollCalls = rec.Count()
			res.P50 = rec.Quantile(0.50)
			res.P99 = rec.Quantile(0.99)
		}
		rep.Jobs[j] = JobReport{
			Result:       res,
			QoSDelaySecs: usage[j].DelaySecs,
			Retry:        byJob[j],
		}
	}
	if reg != nil {
		rep.FillObs(reg)
		experiments.CaptureLustre(reg, fs, end)
	}
	return rep, nil
}

// RunWithBaseline runs the trace, then re-runs every job ISOLATED — same
// machine configuration, same policy, same seed, same arrival, alone on a
// fresh HEALTHY instance — and fills the slowdown ratios: elapsed and p99
// collective-call latency, multi-tenant over isolated. A ratio > 1 is what
// sharing the machine cost the job. The baseline is healthy even when the
// trace carries a fault scenario: scenarios pin faults to world ranks and
// targets of the TRACE's geometry (one-straggler afflicts world rank 1,
// wherever it lives), so replaying them into each job's small solo world
// would afflict different ranks and measure a different machine. Healthy-
// isolated is the one baseline every tenant shares: "this machine, alone,
// working" — which makes the ratio read "what sharing this (possibly
// faulted) machine cost me".
func RunWithBaseline(p experiments.Preset, t Trace) (Report, error) {
	// Point 0 is the shared run, point 1+j job j's isolated baseline; each
	// is its own machine, so they run concurrently.
	d := t.WithDefaults()
	if err := d.Validate(); err != nil {
		return Report{}, err
	}
	runs := make([]Report, 1+len(d.Jobs))
	errs := make([]error, len(runs))
	experiments.ForEachPoint(len(runs), d.Procs(), func(i int) {
		tt := d
		if i > 0 {
			tt.Scenario, tt.Jobs = "", []job.Spec{d.Jobs[i-1]}
		}
		runs[i], errs[i] = Run(p, tt)
	})
	rep, err := runs[0], errs[0]
	if err != nil {
		return Report{}, err
	}
	for j, s := range d.Jobs {
		if err := errs[1+j]; err != nil {
			return Report{}, fmt.Errorf("tenancy: isolated baseline for %q: %w", s.Name, err)
		}
		base := runs[1+j].Jobs[0]
		if e := base.Elapsed(); e > 0 {
			rep.Jobs[j].Slowdown = rep.Jobs[j].Elapsed() / e
		}
		if base.P99 > 0 {
			rep.Jobs[j].SlowdownP99 = rep.Jobs[j].P99 / base.P99
		}
	}
	return rep, nil
}
