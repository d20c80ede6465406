package tenancy

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/qos"
)

// The multi-tenant layer inherits the engine's determinism contract: a
// trace's report is a pure function of (specs, policy, seed) — bit-identical
// across repeated runs, healthy or faulted.
// These tests pin that on the canonical 4-job mixed trace with every job's
// data verified byte-for-byte in-sim.

func mixedFor(scenario string) Trace {
	tr := MixedTrace(4)
	tr.Policy = qos.NameFairShare
	tr.Scenario = scenario
	return tr
}

func mustRun(t *testing.T, tr Trace) Report {
	t.Helper()
	rep, err := Run(experiments.BenchPreset(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range rep.Jobs {
		if !j.Verified {
			t.Fatalf("job %s failed byte-exact verification", j.Name)
		}
	}
	return rep
}

func TestRunTwiceBitIdentical(t *testing.T) {
	for _, scenario := range []string{"", "one-straggler"} {
		a := mustRun(t, mixedFor(scenario))
		b := mustRun(t, mixedFor(scenario))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("scenario %q: two identical runs differ:\n%+v\n%+v", scenario, a, b)
		}
	}
}

// TestQuantilesOrderIndependent pins that the latency quantiles are stable:
// the recorder's quantile is a pure function of the sample multiset, not of
// the order in which ranks record.
func TestQuantilesOrderIndependent(t *testing.T) {
	tr := mixedFor("")
	a := mustRun(t, tr)
	for i, j := range mustRun(t, tr).Jobs {
		if j.P50 != a.Jobs[i].P50 || j.P99 != a.Jobs[i].P99 {
			t.Fatalf("job %s quantiles unstable", j.Name)
		}
		if j.CollCalls == 0 {
			t.Fatalf("job %s recorded no collective calls", j.Name)
		}
		if j.P99 < j.P50 {
			t.Fatalf("job %s: p99 %.6f < p50 %.6f", j.Name, j.P99, j.P50)
		}
	}
}
