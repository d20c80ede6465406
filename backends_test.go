// Storage-backend acceptance tests: the claims the pluggable-backend seam
// was built to make checkable.
//
//   - List-I/O: on a strided (noncontiguous) IOR write, the listio backend
//     must serve strictly fewer storage requests than the per-extent lustre
//     model while the target-served bytes agree — Ching et al.'s list-I/O
//     argument as a conserved-quantity test.
//   - Burst buffer: on a checkpoint burst with per-step compute at least as
//     long as the reference I/O time, the bb backend's write-call seconds
//     must come in strictly below lustre's (the drain hides under compute),
//     and the checkpoint must read back byte-exact after the final drain.
//   - Both sweeps are run-twice identical — backends keep the repo's
//     determinism contract.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/job"
)

const backendProcs = 16

func TestBackendSweepListIO(t *testing.T) {
	p := experiments.BenchPreset()
	pts := p.BackendSweep(backendProcs, job.BackendNames())
	if len(pts) != 3 {
		t.Fatalf("sweep returned %d points, want 3", len(pts))
	}
	byName := map[string]experiments.BackendPoint{}
	for _, pt := range pts {
		byName[pt.Backend] = pt
		if pt.Elapsed <= 0 || pt.BW <= 0 {
			t.Errorf("%s: degenerate point %+v", pt.Backend, pt)
		}
		if pt.Requests <= 0 || pt.VirtBytes <= 0 {
			t.Errorf("%s: no storage traffic recorded: %+v", pt.Backend, pt)
		}
	}
	lus, lio := byName["lustre"], byName["listio"]
	if lio.Requests >= lus.Requests {
		t.Errorf("list-I/O served %d requests, lustre %d: want strictly fewer",
			lio.Requests, lus.Requests)
	}
	if lio.VirtBytes != lus.VirtBytes {
		t.Errorf("bytes not conserved across backends: listio %d, lustre %d",
			lio.VirtBytes, lus.VirtBytes)
	}

	t.Run("RunTwiceIdentical", func(t *testing.T) {
		again := p.BackendSweep(backendProcs, job.BackendNames())
		for i := range pts {
			if pts[i] != again[i] {
				t.Errorf("%s: sweep differs between runs:\n  first:  %+v\n  second: %+v",
					pts[i].Backend, pts[i], again[i])
			}
		}
	})
}

func TestCheckpointBurst(t *testing.T) {
	p := experiments.BenchPreset()
	// ratio 1: each step's compute equals the reference per-step I/O time —
	// the acceptance threshold where a staging tier must win.
	pts := p.CheckpointBurst(backendProcs, 1, job.BackendNames())
	byName := map[string]experiments.BurstPoint{}
	for _, pt := range pts {
		byName[pt.Backend] = pt
		if pt.Elapsed <= 0 || pt.WriteSecs <= 0 {
			t.Errorf("%s: degenerate point %+v", pt.Backend, pt)
		}
	}
	lus, b := byName["lustre"], byName["bb"]
	if b.WriteSecs >= lus.WriteSecs {
		t.Errorf("bb write-call seconds %g >= lustre %g at compute/IO ratio 1: drain did not hide",
			b.WriteSecs, lus.WriteSecs)
	}
	// Pass-through lustre pays only the Drain barrier itself — negligible
	// next to its write-call time.
	if lus.DrainSecs > lus.WriteSecs/100 {
		t.Errorf("pass-through lustre charged %g drain seconds (writes took %g): Drain is not a no-op",
			lus.DrainSecs, lus.WriteSecs)
	}
	// The byte-exact read-back after drain happens inside CheckpointBurst's
	// Verify (it panics the run on mismatch); reaching here means it passed.

	t.Run("RunTwiceIdentical", func(t *testing.T) {
		again := p.CheckpointBurst(backendProcs, 1, job.BackendNames())
		for i := range pts {
			if pts[i] != again[i] {
				t.Errorf("%s: burst sweep differs between runs:\n  first:  %+v\n  second: %+v",
					pts[i].Backend, pts[i], again[i])
			}
		}
	})
}
