package experiments

import (
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/workload"
)

// Verify runs the spec's workload at the preset's geometry, under the
// preset's fault plan, and checks the file it wrote byte for byte: every
// rank reads its data back and, under a plan, rank 0 audits the integrity
// ledger. It returns the first failure. The cmd tools' -verify flags and
// the integration tests use it.
func Verify(p Preset, s job.Spec) error {
	w, scale, err := WorkloadFor(p, s)
	if err != nil {
		return err
	}
	env := EnvFor(p, scale, OptionsFor(s))
	name := strings.TrimSuffix(s.Workload, "io") + "-verify" // tile-verify, ior-verify, bt-verify, ...
	_, err = p.once(s.Procs, p.Fault, w, env, name, true)
	return err
}

// VerifyTile is Verify of the tile workload at nprocs ranks with opts'
// group count and hints.
//
// Deprecated: use Verify.
func VerifyTile(p Preset, nprocs int, opts core.Options) error {
	return Verify(p, job.Spec{Workload: job.WorkloadTileIO, Procs: nprocs, Groups: opts.NumGroups,
		Hints: job.Hints{CBNodes: opts.Hints.CBNodes, CBBufferSize: opts.Hints.CBBufferSize}})
}

// once runs w on nprocs fresh ranks under plan and returns rank 0's
// Result. With check set, every rank then checks its bytes (checkAudited)
// and the first failure is returned too.
func (p Preset) once(nprocs int, plan *fault.Plan, w workload.Workload, env workload.Env, name string, check bool) (workload.Result, error) {
	var res workload.Result
	var first error
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, plan, func(r *mpi.Rank) {
		out := w.Write(r, env, name)
		if check {
			if err := checkAudited(r, w, env, name); err != nil && first == nil {
				first = err
			}
		}
		if r.WorldRank() == 0 {
			res = out
		}
	})
	return res, first
}

// checkAudited is the read-back half of every verifying runner: a
// barrier, this rank's byte-exact Check, then on rank 0 — in faulted
// environments, which carry the integrity ledger — the audit that every
// acknowledged store reads back identical to its issue-time digest.
func checkAudited(r *mpi.Rank, w workload.Workload, env workload.Env, name string) error {
	mpi.WorldComm(r).Barrier()
	err := w.Check(r, env, name)
	if r.WorldRank() == 0 && env.Ledger != nil {
		if aerr := env.Ledger.VerifyFile(name, env.FS.Open(r, name, env.Stripe)); err == nil {
			err = aerr
		}
	}
	return err
}
