package tenancy

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/qos"
)

func TestTraceRoundTrip(t *testing.T) {
	tr := MixedTrace(8)
	tr.Policy = qos.NameFairShare
	tr.Scenario = "one-straggler"
	tr.Seed = 7
	tr.Workers = 4 // deprecated and ignored, but old trace files still parse
	got, err := DecodeTrace(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestDecodeTraceRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeTrace([]byte(`{"jobs": [], "polcy": "fifo"}`)); err == nil {
		t.Fatal("want error for unknown field, got nil")
	}
	if _, err := DecodeTrace([]byte(`{"jobs": []} {"jobs": []}`)); err == nil {
		t.Fatal("want error for trailing data, got nil")
	}
	// A job spec no longer has an engine worker count; a stale one says so.
	_, err := DecodeTrace([]byte(`{"jobs": [{"workload": "ior", "procs": 4, "workers": 2}]}`))
	if err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("job with a workers field accepted: %v", err)
	}
}

func TestTraceDefaults(t *testing.T) {
	tr := Trace{Jobs: []job.Spec{
		{Workload: job.WorkloadIOR, Procs: 4},
		{Workload: job.WorkloadIOR, Procs: 4},
	}}
	d := tr.WithDefaults()
	if d.Policy != qos.NameFIFO || d.Backend != "lustre" || d.Seed != 1 {
		t.Fatalf("trace defaults wrong: %+v", d)
	}
	// Anonymous jobs get unique index-derived names; trace-level knobs are
	// stamped onto every job so specs stay self-consistent.
	if d.Jobs[0].Name != "ior0" || d.Jobs[1].Name != "ior1" {
		t.Fatalf("job name defaults wrong: %q, %q", d.Jobs[0].Name, d.Jobs[1].Name)
	}
	for i, s := range d.Jobs {
		if s.Backend != "lustre" || s.Seed != 1 {
			t.Fatalf("job %d did not inherit trace knobs: %+v", i, s)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("defaulted trace invalid: %v", err)
	}
}

func TestTraceValidate(t *testing.T) {
	base := func() Trace {
		return Trace{Jobs: []job.Spec{
			{Name: "a", Workload: job.WorkloadIOR, Procs: 4},
			{Name: "b", Workload: job.WorkloadTileIO, Procs: 4},
		}}
	}
	cases := []struct {
		name  string
		mut   func(*Trace)
		field string
	}{
		{"empty", func(tr *Trace) { tr.Jobs = nil }, "Jobs"},
		{"bad policy", func(tr *Trace) { tr.Policy = "wfq" }, "Policy"},
		{"dup name", func(tr *Trace) { tr.Jobs[1].Name = "a" }, "Jobs[1].Name"},
		{"job scenario", func(tr *Trace) { tr.Jobs[0].Scenario = "one-straggler" }, "Jobs[0].Scenario"},
		{"job backend", func(tr *Trace) { tr.Jobs[1].Backend = "bb" }, "Jobs[1].Backend"},
		{"job procs", func(tr *Trace) { tr.Jobs[0].Procs = 0 }, "Jobs[0].Procs"},
	}
	for _, tc := range cases {
		tr := base()
		tc.mut(&tr)
		tr = tr.WithDefaults()
		// Re-apply the mutation where WithDefaults would have stamped over it.
		tc.mut(&tr)
		err := tr.Validate()
		var ve *job.ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: want ValidationError, got %v", tc.name, err)
			continue
		}
		if !strings.HasPrefix(ve.Field, tc.field) {
			t.Errorf("%s: field = %q, want prefix %q", tc.name, ve.Field, tc.field)
		}
	}
}

func TestMixedTraceShape(t *testing.T) {
	tr := MixedTrace(8).WithDefaults()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 4 {
		t.Fatalf("MixedTrace has %d jobs, want 4", len(tr.Jobs))
	}
	if got := tr.Procs(); got != 16+9+8+4 {
		t.Fatalf("Procs() = %d, want 37", got)
	}
	// The trace must exercise all of: a hog, staggered arrivals, and a
	// latency-sensitive small job.
	if tr.Jobs[0].Procs <= tr.Jobs[3].Procs {
		t.Fatal("hog is not larger than the small job")
	}
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Arrival <= tr.Jobs[i-1].Arrival {
			t.Fatal("arrivals are not staggered")
		}
	}
}
