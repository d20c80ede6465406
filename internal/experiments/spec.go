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
// Scenario ("" clears it). It is the one bridge from a spec to a preset:
// cli.Common.Apply routes the tools' flags through it, and harnesses that
// resolve scenarios themselves (collwall's modes, the tenancy trace) pass
// a spec whose Scenario is "".
func (p *Preset) ApplySpec(s job.Spec) error {
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
	p.Fault = nil
	if s.Scenario != "" {
		p.Fault, _ = fault.Scenario(s.Scenario) // Validate has resolved it
	}
	return nil
}

// SetParam sets one named machine parameter of the preset — the knobs the
// sensitivity sweeps vary: latency (network latency, seconds), tailprob
// (OST heavy-tail probability), jitter (OST service jitter fraction),
// ostbw (per-OST bandwidth, bytes/s), osts (OST count) and switch (OST
// client-switch penalty, seconds). An unknown name is an error listing
// the valid ones.
func (p *Preset) SetParam(name string, v float64) error {
	switch name {
	case "latency":
		p.Cluster.Latency = v
	case "tailprob":
		p.Lustre.TailProb = v
	case "jitter":
		p.Lustre.Jitter = v
	case "ostbw":
		p.Lustre.Bandwidth = v
	case "osts":
		p.Lustre.Targets = int(v)
	case "switch":
		p.Lustre.SwitchPenalty = v
	default:
		return fmt.Errorf("experiments: unknown parameter %q (want one of latency, tailprob, jitter, ostbw, osts, switch)", name)
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
func WorkloadFor(p Preset, s job.Spec) (w workload.Workload, scale float64, err error) {
	switch s.Workload {
	case job.WorkloadTileIO:
		return p.Tile, p.TileScale, nil
	case job.WorkloadIOR:
		return workload.IOR{Block: p.IORBlock, Transfer: p.IORTransfer}, p.IORScale, nil
	case job.WorkloadBTIO:
		bt := p.BT
		if s.Steps > 0 {
			bt.Steps = s.Steps
		}
		return bt, p.BTScale, nil
	case job.WorkloadFlashIO:
		return p.Flash, p.FlashScale, nil
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
			return nil, 0, fmt.Errorf("experiments: interleave %d does not divide block bytes %d", cb.Interleave, cb.BlockBytes)
		}
		return cb, p.TileScale, nil
	}
	return nil, 0, fmt.Errorf("experiments: unknown workload %q", s.Workload)
}

// TraceEnv builds the shared machine for a multi-tenant trace — ONE backend
// (and integrity ledger, under a fault plan) that every job mounts — and
// returns it with a derivation function producing each job's environment
// from its options. The per-job environments share FS, stripe, and ledger;
// only the options differ, exactly as concurrent applications share a file
// system but open files with their own hints. Both halves are envPlan's
// own (mount, then normalize), so a job inside a trace opens files
// identically to the same job run alone.
func (p Preset) TraceEnv(scale float64, plan *fault.Plan) (fs storage.Backend, envOf func(opts core.Options) workload.Env) {
	shared := p.mount(scale, plan)
	return shared.FS, func(opts core.Options) workload.Env {
		env := shared
		env.Opts = p.normalize(opts, env.Stripe.Size)
		return env
	}
}
