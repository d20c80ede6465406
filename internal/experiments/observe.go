package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Observed bundles one fully instrumented run: the workload result, the raw
// span recorder (for Perfetto export), the final metrics snapshot with the
// engine's and storage layer's counters folded in, and the critical-path
// report over the recorded spans.
type Observed struct {
	Result   workload.Result
	Trace    *obs.Recorder
	Registry *obs.Registry
	Snapshot obs.Snapshot
	Path     obs.Report
}

// Perfetto renders the observed run as a Chrome trace_event JSON array.
func (o Observed) Perfetto() ([]byte, error) {
	return obs.Perfetto(o.Trace, o.Registry)
}

// ObservedTileWrite runs one instrumented tile-IO collective write: a trace
// recorder and metrics registry are threaded through every layer (mpi
// collectives, the lustre service loop, the mpiio round protocol), the
// engine's scheduler counters and per-OST totals are captured after the run,
// and the span set is reduced to a critical path. plan == nil runs healthy;
// the instrumentation is observe-only, so virtual-time results are
// bit-identical to an uninstrumented run of the same configuration (pinned
// by the root obs tests).
func ObservedTileWrite(p Preset, nprocs, groups int, plan *fault.Plan) Observed {
	p.Fault = plan
	rec := obs.NewRecorder()
	reg := obs.New()
	env := EnvFor(p, p.TileScale, core.Options{NumGroups: groups})
	env.FS.SetObs(reg)
	var res workload.Result
	end, st := mpi.RunPlan(nprocs, p.Cluster, p.Seed, p.Fault, func(r *mpi.Rank) {
		r.SetTracer(rec)
		r.SetObs(reg)
		out := p.Tile.Write(r, env, "tile")
		if r.WorldRank() == 0 {
			res = out
		}
	})
	CaptureSim(reg, st)
	CaptureLustre(reg, env.FS, end)
	return Observed{
		Result:   res,
		Trace:    rec,
		Registry: reg,
		Snapshot: reg.Snapshot(),
		Path:     obs.CriticalPath(rec.EventsShared()),
	}
}

// CaptureSim folds the engine's scheduler counters into the registry under
// the "sim." prefix.
func CaptureSim(reg *obs.Registry, st sim.Stats) {
	reg.Counter("sim.resumes").Add(st.Resumes.Value())
	reg.Counter("sim.advances").Add(st.Advances.Value())
	reg.Counter("sim.sends").Add(st.Sends.Value())
	reg.Counter("sim.recvs").Add(st.Recvs.Value())
	reg.Counter("sim.mailbox.exact_pops").Add(st.ExactPops.Value())
	reg.Counter("sim.mailbox.wildcard_pops").Add(st.WildcardPops.Value())
	reg.Counter("sim.mailbox.wildcard_scanned").Add(st.WildcardScanned.Value())
	reg.Counter("sim.perturbed").Add(st.Perturbed.Value())
	reg.Counter("sim.timeouts").Add(st.Timeouts.Value())
	reg.Gauge("sim.ready.max_depth").Set(float64(st.MaxReadyDepth))
}

// CaptureLustre folds the storage backend's per-target totals and — for
// backends with a retry engine — its counters into the registry. The metric
// names keep the historical "lustre." prefix so dashboards and goldens read
// unchanged regardless of which backend served the run. elapsed (the run's
// virtual finish time) turns per-target busy time into a utilization gauge.
func CaptureLustre(reg *obs.Registry, fs storage.Backend, elapsed float64) {
	var reqs, bytes, switches, tails, errs int64
	var busyMax, busyTot float64
	for _, st := range fs.Stats() {
		reqs += st.Requests
		bytes += st.Bytes
		switches += st.Switches
		tails += st.Tails
		errs += st.Errors
		busyTot += st.BusySecs
		busyMax = max(busyMax, st.BusySecs)
	}
	reg.Counter("lustre.ost.requests").Add(uint64(reqs))
	reg.Counter("lustre.ost.bytes").Add(uint64(bytes))
	reg.Counter("lustre.ost.switches").Add(uint64(switches))
	reg.Counter("lustre.ost.tails").Add(uint64(tails))
	reg.Counter("lustre.ost.errors").Add(uint64(errs))
	reg.Gauge("lustre.ost.busy.total_secs").Set(busyTot)
	reg.Gauge("lustre.ost.busy.max_secs").Set(busyMax)
	if elapsed > 0 {
		reg.Gauge("lustre.ost.utilization.max").Set(busyMax / elapsed)
	}
	rs := fs.RetryStats()
	reg.Counter("lustre.retry.attempts").Add(rs.Attempts)
	reg.Counter("lustre.retry.failures").Add(rs.Failures)
	reg.Counter("lustre.retry.exhausted").Add(rs.Exhausted)

	// Per-job attribution: multi-tenant runs get one bucket per JobID that
	// recorded retry events. Single-job tools degrade to a lone "job0"
	// bucket (their ranks all carry JobID 0); when the backend has only
	// node-scoped counters with no issuing job (a staging tier's background
	// drains), the aggregate is reported as job0 so the telemetry never
	// silently drops work.
	by := fs.RetryStatsByJob()
	if len(by) == 0 && rs != (recovery.RetryStats{}) {
		by = map[int]recovery.RetryStats{0: rs}
	}
	ids := make([]int, 0, len(by))
	for id := range by {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		jr := by[id]
		prefix := fmt.Sprintf("lustre.retry.job%d.", id)
		reg.Counter(prefix + "attempts").Add(jr.Attempts)
		reg.Counter(prefix + "retries").Add(jr.Retries)
		reg.Counter(prefix + "failures").Add(jr.Failures)
		reg.Counter(prefix + "breaker_opens").Add(jr.BreakerOpens)
		reg.Counter(prefix + "exhausted").Add(jr.Exhausted)
		reg.Gauge(prefix + "backoff_secs").Set(jr.BackoffSecs)
	}
}
