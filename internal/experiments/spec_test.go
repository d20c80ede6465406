package experiments

import (
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/workload"
)

func TestApplySpec(t *testing.T) {
	p := BenchPreset()
	err := (&p).ApplySpec(job.Spec{
		Workload: job.WorkloadIOR, Procs: 8, Seed: 9,
		Backend: "bb", BBCapacity: 1 << 20, BBDrainBW: 1e6,
		Scenario: "one-straggler", PEsPerNode: 4, IntraNode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.Backend != "bb" || p.BBCapacity != 1<<20 ||
		p.BBDrainBW != 1e6 || p.Cluster.PEsPerNode != 4 || !p.IntraNode {
		t.Fatalf("knobs not applied: %+v", p)
	}
	if p.Fault == nil {
		t.Fatal("scenario not resolved to a fault plan")
	}
	// Clearing the scenario clears the plan — ApplySpec owns the field.
	if err := (&p).ApplySpec(job.Spec{Workload: job.WorkloadIOR, Procs: 8}); err != nil {
		t.Fatal(err)
	}
	if p.Fault != nil {
		t.Fatal("empty scenario left a stale fault plan")
	}

	if err := (&p).ApplySpec(job.Spec{Workload: "mystery", Procs: 8}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if err := (&p).ApplySpec(job.Spec{Workload: job.WorkloadIOR, Procs: 8, Scenario: "nope"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestOptionsForBTIntermediate pins the geometry rule the tenancy layer
// depends on: partitioned BT-IO materializes the intermediate view (the
// Figure 10 configuration); everything else does not.
func TestOptionsForBTIntermediate(t *testing.T) {
	if !OptionsFor(job.Spec{Workload: job.WorkloadBTIO, Groups: 4}).MaterializeIntermediate {
		t.Fatal("partitioned BT-IO must materialize the intermediate view")
	}
	if OptionsFor(job.Spec{Workload: job.WorkloadBTIO, Groups: 1}).MaterializeIntermediate {
		t.Fatal("unpartitioned BT-IO must not materialize")
	}
	if OptionsFor(job.Spec{Workload: job.WorkloadTileIO, Groups: 4}).MaterializeIntermediate {
		t.Fatal("tile-IO must not materialize")
	}
	opts := OptionsFor(job.Spec{Workload: job.WorkloadIOR, Groups: 2,
		Hints: job.Hints{CBNodes: 8, CBBufferSize: 1 << 16}})
	if opts.NumGroups != 2 || opts.Hints.CBNodes != 8 || opts.Hints.CBBufferSize != 1<<16 {
		t.Fatalf("hints not threaded: %+v", opts)
	}
}

func TestWorkloadForOverrides(t *testing.T) {
	p := BenchPreset()
	w, scale, err := WorkloadFor(p, job.Spec{Workload: job.WorkloadBTIO, Procs: 4, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bt, ok := w.(workload.BTIO); !ok || bt.Steps != 2 {
		t.Fatalf("BT steps override not applied: %+v", w)
	}
	if scale != p.BTScale {
		t.Fatalf("scale = %v, want BTScale %v", scale, p.BTScale)
	}
	cw, _, err := WorkloadFor(p, job.Spec{Workload: job.WorkloadCheckpoint, Procs: 4,
		BlockBytes: 8 << 10, Steps: 3, Interleave: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if cb, ok := cw.(workload.CheckpointBurst); !ok || cb.BlockBytes != 8<<10 || cb.Steps != 3 || cb.Interleave != 2<<10 {
		t.Fatalf("checkpoint overrides not applied: %+v", cw)
	}
	if _, _, err := WorkloadFor(p, job.Spec{Workload: job.WorkloadCheckpoint, Procs: 4,
		BlockBytes: 5 << 10, Interleave: 2 << 10}); err == nil {
		t.Fatal("indivisible interleave accepted")
	}
	if _, _, err := WorkloadFor(p, job.Spec{Workload: "mystery", Procs: 4}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestSetParam pins the machine-parameter setter: every name the
// sensitivity tools accept lands on its preset field, and an unknown name
// is an error that lists the valid ones.
func TestSetParam(t *testing.T) {
	cases := []struct {
		name string
		v    float64
		got  func(p Preset) float64
	}{
		{"latency", 3e-6, func(p Preset) float64 { return p.Cluster.Latency }},
		{"tailprob", 0.07, func(p Preset) float64 { return p.Lustre.TailProb }},
		{"jitter", 0.2, func(p Preset) float64 { return p.Lustre.Jitter }},
		{"ostbw", 9e7, func(p Preset) float64 { return p.Lustre.Bandwidth }},
		{"osts", 18, func(p Preset) float64 { return float64(p.Lustre.Targets) }},
		{"switch", 2e-3, func(p Preset) float64 { return p.Lustre.SwitchPenalty }},
	}
	for _, c := range cases {
		p := BenchPreset()
		if err := p.SetParam(c.name, c.v); err != nil {
			t.Fatalf("SetParam(%q): %v", c.name, err)
		}
		if got := c.got(p); got != c.v {
			t.Errorf("SetParam(%q, %g) left the field at %g", c.name, c.v, got)
		}
	}
	p := BenchPreset()
	err := p.SetParam("bogus", 1)
	if err == nil {
		t.Fatal("unknown parameter accepted")
	}
	for _, c := range cases {
		if !strings.Contains(err.Error(), c.name) {
			t.Errorf("error %q does not list %q", err, c.name)
		}
	}
	if p != BenchPreset() {
		t.Error("a rejected parameter changed the preset")
	}
}
