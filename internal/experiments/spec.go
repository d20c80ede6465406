package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/mpiio"
	"repro/internal/storage"
	"repro/internal/workload"
)

// This file is the bridge from the declarative job.Spec to the live
// experiment types: the preset carries machine and scale, the spec carries
// one run's knobs. Everything the cmd tools' flags used to poke into the
// preset goes through here now, so a -spec file and a flag invocation are
// the same code path (and provably bit-identical).

// ApplySpec copies a spec's run knobs onto the preset — defaults applied,
// validation errors returned — including the fault plan resolved from
// Scenario ("" clears it). It is the spec-world twin of cli.Common.Apply.
func (p *Preset) ApplySpec(s job.Spec) error {
	if err := p.ApplySpecBase(s); err != nil {
		return err
	}
	if s2 := s.WithDefaults(); s2.Scenario != "" {
		plan, err := fault.Scenario(s2.Scenario)
		if err != nil {
			return err
		}
		p.Fault = plan
	} else {
		p.Fault = nil
	}
	return nil
}

// ApplySpecBase is ApplySpec without the fault plan — for harnesses
// (collwall's modes, the tenancy trace) that resolve scenarios themselves.
func (p *Preset) ApplySpecBase(s job.Spec) error {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return err
	}
	p.Seed = s.Seed
	if s.PEsPerNode != 0 {
		p.Cluster.PEsPerNode = s.PEsPerNode
	}
	p.IntraNode = s.IntraNode
	p.Backend = s.Backend
	p.BBCapacity = s.BBCapacity
	p.BBDrainBW = s.BBDrainBW
	if s.Interleave > 0 {
		p.BurstInterleave = s.Interleave
	}
	return nil
}

// OptionsFor translates the spec's protocol knobs into the core options a
// runner opens files with. BT-IO with subgroups gets the materialized
// intermediate view, matching BTIOScale — the configuration that reproduces
// Figure 10 (BT's scattered cells make direct FA partitioning impossible).
func OptionsFor(s job.Spec) core.Options {
	return core.Options{
		NumGroups:               s.Groups,
		MaterializeIntermediate: s.Workload == job.WorkloadBTIO && s.Groups > 1,
		Hints: mpiio.Hints{
			CBNodes:      s.Hints.CBNodes,
			CBBufferSize: s.Hints.CBBufferSize,
		},
	}
}

// WorkloadFor instantiates the spec's named workload at the preset's
// geometry, with the spec's shape overrides applied, and returns it with
// the cost-scale divisor the runner should build its environment at. The
// returned workloads are the exact values the single-job runners use, so a
// job inside a tenancy trace reproduces the corresponding figure's I/O
// pattern bit-for-bit.
func WorkloadFor(p Preset, s job.Spec) (w SpecWorkload, scale float64, err error) {
	switch s.Workload {
	case job.WorkloadTileIO:
		return SpecWorkload{Tile: &p.Tile}, p.TileScale, nil
	case job.WorkloadIOR:
		return SpecWorkload{IOR: &workload.IOR{Block: p.IORBlock, Transfer: p.IORTransfer}}, p.IORScale, nil
	case job.WorkloadBTIO:
		bt := p.BT
		if s.Steps > 0 {
			bt.Steps = s.Steps
		}
		return SpecWorkload{BT: &bt}, p.BTScale, nil
	case job.WorkloadFlashIO:
		return SpecWorkload{Flash: &p.Flash}, p.FlashScale, nil
	case job.WorkloadCheckpoint:
		cb := p.burstWorkload(s.Compute)
		if s.BlockBytes > 0 {
			cb.BlockBytes = s.BlockBytes
		}
		if s.Steps > 0 {
			cb.Steps = s.Steps
		}
		if s.Interleave > 0 {
			cb.Interleave = s.Interleave
		}
		if cb.Interleave > 0 && cb.BlockBytes%cb.Interleave != 0 {
			return SpecWorkload{}, 0, fmt.Errorf("experiments: interleave %d does not divide block bytes %d", cb.Interleave, cb.BlockBytes)
		}
		return SpecWorkload{Burst: &cb}, p.TileScale, nil
	}
	return SpecWorkload{}, 0, fmt.Errorf("experiments: unknown workload %q", s.Workload)
}

// SpecWorkload is the tagged union WorkloadFor returns: exactly one field
// is non-nil.
type SpecWorkload struct {
	Tile  *workload.TileIO
	IOR   *workload.IOR
	BT    *workload.BTIO
	Flash *workload.FlashIO
	Burst *workload.CheckpointBurst
}

// TraceEnv builds the shared machine for a multi-tenant trace — ONE backend
// (and integrity ledger, under a fault plan) that every job mounts — and
// returns it with a derivation function producing each job's environment
// from its options. The per-job environments share FS, stripe, and ledger;
// only the options differ, exactly as concurrent applications share a file
// system but open files with their own hints. Option normalization (fault
// threading, intra-node hint, scaled collective-buffer default) matches the
// single-job env construction line for line, so a job inside a trace opens
// files identically to the same job run alone.
func (p Preset) TraceEnv(scale float64, plan *fault.Plan) (fs storage.Backend, envOf func(opts core.Options) workload.Env) {
	lcfg := p.Lustre
	lcfg.CostScale = scale
	if !plan.IsZero() {
		lcfg.Faults = plan
	}
	fs = p.newBackend(lcfg)
	var led *storage.Ledger
	if !plan.IsZero() {
		led = storage.NewLedger(p.Seed)
		fs.SetLedger(led)
	}
	stripeSize := int64(4<<20) / int64(scale)
	if stripeSize < 256 {
		stripeSize = 256
	}
	envOf = func(opts core.Options) workload.Env {
		if !plan.IsZero() {
			opts.Run.Fault = plan
		}
		if p.IntraNode {
			opts.Hints.IntraNode = true
		}
		if opts.Hints.CBBufferSize == 0 {
			opts.Hints.CBBufferSize = stripeSize
		}
		return workload.Env{
			FS:     fs,
			Stripe: storage.Stripe{Count: p.StripeCount, Size: stripeSize},
			Opts:   opts,
			Ledger: led,
		}
	}
	return fs, envOf
}
