package cli

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/obs"
)

func TestParseLists(t *testing.T) {
	got := ParseInts("groups", " 1, 2,16")
	want := []int{1, 2, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseInts = %v", got)
		}
	}
	fs := ParseFloats("ratio", "0,0.5, 2")
	if len(fs) != 3 || fs[0] != 0 || fs[1] != 0.5 || fs[2] != 2 {
		t.Fatalf("ParseFloats = %v", fs)
	}
}

func TestPlanAndApply(t *testing.T) {
	c := &Common{Spec: job.Spec{Workload: job.WorkloadIOR, Procs: 8, Seed: 7}}
	if c.Plan() != nil {
		t.Fatal("empty scenario must yield nil plan")
	}
	c.Spec.Scenario = "one-straggler"
	plan := c.Plan()
	if plan == nil || plan.Name != "one-straggler" {
		t.Fatalf("Plan() = %+v", plan)
	}
	p := experiments.BenchPreset()
	c.Apply(&p)
	if p.Seed != 7 || p.Fault == nil || p.Fault.Name != "one-straggler" {
		t.Fatalf("Apply: seed=%d fault=%+v", p.Seed, p.Fault)
	}
}

func TestValidateTraceEvents(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Add(0, "sync", 0, 1, "")
	rec.Add(1, "io", 1, 2, "")
	data, err := obs.Perfetto(rec, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceEvents(data); err != nil {
		t.Fatalf("exporter output must validate: %v", err)
	}
	for _, bad := range []string{
		"{}",                         // not an array
		"[]",                         // empty
		`[{"ph":"X"}]`,               // no name
		`[{"name":"x","ph":"Z"}]`,    // unknown phase
		`[{"name":"x"}]`,             // missing phase
		`[{"name":"x","ph":"X"}, 5]`, // non-object element
		`[{"name":"x","ph":"X"}`,     // truncated
	} {
		if err := ValidateTraceEvents([]byte(bad)); err == nil {
			t.Errorf("ValidateTraceEvents(%q) must fail", bad)
		}
	}
}
