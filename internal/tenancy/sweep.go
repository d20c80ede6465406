package tenancy

import (
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/qos"
)

// Sweep runs the same trace under each named QoS policy (all of
// qos.Names() when policies is empty), with isolated baselines, and returns
// one Report per policy in order — the data behind the EXPERIMENTS.md
// "Shared-filesystem interference" tables. The trace's own Policy field is
// ignored; everything else (jobs, scenario, backend, seed) is held fixed so
// the reports differ only in server-side scheduling.
func Sweep(p experiments.Preset, t Trace, policies []string) ([]Report, error) {
	if len(policies) == 0 {
		policies = qos.Names()
	}
	out := make([]Report, len(policies))
	errs := make([]error, len(policies))
	traces := make([]Trace, len(policies))
	for i, pol := range policies {
		traces[i] = t
		traces[i].Policy = pol
		// A serial sweep stops at the first invalid trace: only the
		// policies before it run.
		if errs[i] = traces[i].WithDefaults().Validate(); errs[i] != nil {
			traces = traces[:i]
			break
		}
	}
	experiments.ForEachPoint(len(traces), t.Procs(), func(i int) { out[i], errs[i] = RunWithBaseline(p, traces[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MixedTrace is the canonical 4-job demonstration trace: a hog-sized tile
// job, BT-IO and IOR mid-sized tenants, and a small checkpoint-burst job,
// arriving staggered so the small job lands on servers the hog has already
// loaded. It is the geometry the determinism suite, the acceptance tests,
// and cmd/tenants' default run all share. procsPerJob scales the shape
// (btio runs on the nearest square >= procsPerJob).
func MixedTrace(procsPerJob int) Trace {
	if procsPerJob < 4 {
		procsPerJob = 4
	}
	sq := 1
	for sq*sq < procsPerJob {
		sq++
	}
	return Trace{
		Jobs: []job.Spec{
			{Name: "tile-hog", Workload: job.WorkloadTileIO, Procs: 2 * procsPerJob, Groups: 4},
			{Name: "btio", Workload: job.WorkloadBTIO, Procs: sq * sq, Groups: 2, Arrival: 0.002, Steps: 2},
			{Name: "ior", Workload: job.WorkloadIOR, Procs: procsPerJob, Groups: 2, Arrival: 0.004},
			{Name: "ckpt-small", Workload: job.WorkloadCheckpoint, Procs: procsPerJob / 2, Groups: 2,
				Arrival: 0.006, Steps: 2, BlockBytes: 4 << 10, Interleave: 1 << 10},
		},
	}
}
