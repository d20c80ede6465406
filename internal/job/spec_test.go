package job

import (
	"errors"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

func validSpec() Spec {
	return Spec{Workload: WorkloadTileIO, Procs: 16, Groups: 4, Seed: 1, Backend: "lustre", Name: "tileio"}
}

func TestRoundTrip(t *testing.T) {
	s := validSpec()
	s.Arrival = 0.25
	s.Hints = Hints{CBNodes: 4, CBBufferSize: 1 << 10}
	s.Scenario = ""
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip changed spec:\n got %+v\nwant %+v", got, s)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	cases := []struct{ doc, field string }{
		{`{"workload": "ior", "procs": 8, "stripes": 9}`, "stripes"},
		// The engine worker count is gone; a stale spec must say so.
		{`{"workload": "ior", "procs": 8, "workers": 2}`, "workers"},
	}
	for _, c := range cases {
		_, err := Decode([]byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("unknown field %q accepted: %v", c.field, err)
		}
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	if _, err := Decode([]byte(`{"workload": "ior", "procs": 8} {"workload": "btio"}`)); err == nil {
		t.Fatal("trailing object accepted")
	}
}

// TestDecodeOver pins the -spec override rule: a field the document sets
// wins, one it omits keeps the base value, and the strictness is Decode's.
func TestDecodeOver(t *testing.T) {
	base := Spec{Workload: WorkloadTileIO, Procs: 64, Seed: 3, Backend: "bb", Hints: Hints{CBNodes: 4}}
	got, err := DecodeOver(base, []byte(`{"procs": 16, "hints": {"cb_buffer_size": 512}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.Procs, want.Hints.CBBufferSize = 16, 512
	if got != want {
		t.Fatalf("DecodeOver = %+v, want %+v", got, want)
	}
	if _, err := DecodeOver(base, []byte(`{"procs": 16, "stripes": 9}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeOver(base, []byte(`{"procs": 16} {}`)); err == nil {
		t.Fatal("trailing object accepted")
	}
}

func TestDecodeList(t *testing.T) {
	specs, err := DecodeList([]byte(`[{"workload": "ior", "procs": 8}, {"workload": "btio", "procs": 9}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Workload != "ior" || specs[1].Procs != 9 {
		t.Fatalf("got %+v", specs)
	}
	if _, err := DecodeList([]byte(`[{"workload": "ior", "bogus": 1}]`)); err == nil {
		t.Fatal("unknown field in list accepted")
	}
}

func TestWithDefaults(t *testing.T) {
	s := Spec{Workload: WorkloadBTIO, Procs: 9}.WithDefaults()
	if s.Name != "btio" || s.Seed != 1 || s.Backend != "lustre" {
		t.Fatalf("defaults not applied: %+v", s)
	}
	// Explicit values survive.
	s = Spec{Workload: WorkloadBTIO, Procs: 9, Name: "x", Seed: 7, Backend: "bb"}.WithDefaults()
	if s.Name != "x" || s.Seed != 7 || s.Backend != "bb" {
		t.Fatalf("defaults clobbered explicit values: %+v", s)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Spec)
		field  string
	}{
		{func(s *Spec) { s.Workload = "dd" }, "Workload"},
		{func(s *Spec) { s.Procs = 0 }, "Procs"},
		{func(s *Spec) { s.Groups = -1 }, "Groups"},
		{func(s *Spec) { s.Groups = s.Procs + 1 }, "Groups"},
		{func(s *Spec) { s.Arrival = -0.5 }, "Arrival"},
		{func(s *Spec) { s.Scenario = "nosuch" }, "Scenario"},
		{func(s *Spec) { s.Backend = "nfs" }, "Backend"},
		{func(s *Spec) { s.BBCapacity = -1 }, "BBCapacity"},
		{func(s *Spec) { s.BBDrainBW = -1 }, "BBDrainBW"},
		{func(s *Spec) { s.PEsPerNode = 1 }, "PEsPerNode"},
		{func(s *Spec) { s.PEsPerNode = 65 }, "PEsPerNode"},
		{func(s *Spec) { s.Hints.CBNodes = -1 }, "Hints.CBNodes"},
		{func(s *Spec) { s.Hints.CBBufferSize = -1 }, "Hints.CBBufferSize"},
		{func(s *Spec) { s.Steps = -1 }, "Steps"},
		{func(s *Spec) { s.Compute = -1 }, "Compute"},
		{func(s *Spec) { s.BlockBytes = -1 }, "BlockBytes"},
		{func(s *Spec) { s.Interleave = -1 }, "Interleave"},
		{func(s *Spec) { s.BlockBytes = 10; s.Interleave = 3 }, "Interleave"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(&s)
		err := s.Validate()
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("field %s: error %v is not a *ValidationError", c.field, err)
		}
		if ve.Field != c.field {
			t.Fatalf("got field %q, want %q (%v)", ve.Field, c.field, err)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestResultElapsed(t *testing.T) {
	r := Result{Arrival: 1.5, End: 4.0}
	if r.Elapsed() != 2.5 {
		t.Fatalf("Elapsed = %g", r.Elapsed())
	}
}

// FuzzSpecJSON checks decode(encode(s)) == s for arbitrary field values,
// and that Decode never accepts a document Encode didn't produce the
// structure of (unknown fields).
func FuzzSpecJSON(f *testing.F) {
	f.Add("tile", "tileio", 16, 4, int64(1), 0.0, "", "lustre", int64(0), 0.0, 2, true, 4, int64(4096), 10, 0.001, int64(64), int64(16))
	f.Add("", "", 0, 0, int64(0), 0.0, "", "", int64(0), 0.0, 0, false, 0, int64(0), 0, 0.0, int64(0), int64(0))
	f.Fuzz(func(t *testing.T, name, wl string, procs, groups int, seed int64, arrival float64,
		scenario, backend string, bbcap int64, bbbw float64, pes int, intra bool,
		cbn int, cbb int64, steps int, compute float64, block, il int64) {
		if math.IsNaN(arrival) || math.IsInf(arrival, 0) ||
			math.IsNaN(bbbw) || math.IsInf(bbbw, 0) ||
			math.IsNaN(compute) || math.IsInf(compute, 0) {
			t.Skip("JSON cannot represent non-finite floats")
		}
		if !utf8.ValidString(name) || !utf8.ValidString(wl) ||
			!utf8.ValidString(scenario) || !utf8.ValidString(backend) {
			t.Skip("JSON replaces invalid UTF-8 with U+FFFD")
		}
		s := Spec{
			Name: name, Workload: wl, Procs: procs, Groups: groups, Seed: seed,
			Arrival: arrival, Scenario: scenario, Backend: backend,
			BBCapacity: bbcap, BBDrainBW: bbbw, PEsPerNode: pes,
			IntraNode: intra, Hints: Hints{CBNodes: cbn, CBBufferSize: cbb},
			Steps: steps, Compute: compute, BlockBytes: block, Interleave: il,
		}
		got, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("decode(encode(s)): %v", err)
		}
		if got != s {
			t.Fatalf("round trip changed spec:\n got %+v\nwant %+v", got, s)
		}
		// Defaults are idempotent.
		d := s.WithDefaults()
		if d2 := d.WithDefaults(); d2 != d {
			t.Fatalf("WithDefaults not idempotent: %+v vs %+v", d, d2)
		}
	})
}
