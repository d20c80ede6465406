// Package tenancy runs several independent applications — a trace of
// job.Specs with staggered arrivals — concurrently against ONE simulated
// machine: shared OSTs, shared NICs, shared staging nodes, one deterministic
// simulation. It is the multi-tenant layer the paper's single-application
// experiments lack: the "collective wall" gets strictly worse when another
// job's requests interleave on the same targets, and ParColl's partitioning
// confines that interference the same way it confines stragglers.
//
// Mechanics (DESIGN.md §16):
//
//   - Jobs are packed contiguously in world-rank order with NO node padding:
//     a boundary node can host the tail of one job and the head of the next,
//     so those jobs share a NIC — deliberate, that is what space-shared
//     schedulers without node-exclusive allocation do.
//   - Each rank arms its job namespace (mpi.Rank.SetJob) before any
//     communication: mpi.WorldComm then spans the job, so every workload —
//     all written against "the world" — runs unmodified inside a trace.
//   - Arrival staggering is a plain AdvanceTo on the rank's clock before the
//     job's first operation: unscaled by straggler plans, so the trace shape
//     is a property of the input, not the fault scenario.
//   - Server-side QoS: one qos.Policy instance attached to the shared
//     backend shapes every request's earliest service start, keyed by the
//     issuing rank's JobID. Policies see engine-serialized admission calls,
//     so the trace stays a pure function of (specs, policy, seed).
//   - Verification runs in-sim: every job reads its files back byte-for-byte
//     before reporting, so cross-job interference can never silently corrupt
//     a result.
package tenancy

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/job"
	"repro/internal/qos"
)

// Trace is a multi-tenant run description: the jobs, the QoS policy the
// shared servers apply, and the machine-level knobs every job shares. It is
// JSON-round-trippable like job.Spec (cmd/tenants' -trace flag reads one).
type Trace struct {
	// Jobs are the tenant applications, with per-job geometry and arrival
	// times. Names must be unique; machine-level fields (Backend, Scenario,
	// PEsPerNode) must be left to the trace.
	Jobs []job.Spec `json:"jobs"`
	// Policy names the server-side QoS policy: "fifo" (default — arrival
	// order, no shaping), "fair" (per-target start-time fair queueing), or
	// "tbucket" (per-job token buckets).
	Policy string `json:"policy,omitempty"`
	// Scenario names a fault scenario applied to the shared hardware ("" =
	// healthy). Faults are a property of the machine, not of one tenant.
	Scenario string `json:"scenario,omitempty"`
	// Backend selects the shared storage backend (default "lustre").
	Backend string `json:"backend,omitempty"`
	// BBCapacity / BBDrainBW configure the "bb" backend's staging tier.
	BBCapacity int64   `json:"bb_capacity,omitempty"`
	BBDrainBW  float64 `json:"bb_drain_bw,omitempty"`
	// Seed is the simulation seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers is ignored; old trace files that set it still parse.
	//
	// Deprecated: the simulation engine is serial.
	Workers int `json:"workers,omitempty"`
	// PEsPerNode overrides the node width (0 = the cluster default).
	PEsPerNode int `json:"pes_per_node,omitempty"`
	// IntraNode turns on two-level collective I/O for every job.
	IntraNode bool `json:"intranode,omitempty"`
}

// WithDefaults fills the trace-level defaults and each job's spec defaults
// (job names fall back to "<workload><index>" so a hand-written trace of
// four anonymous jobs still gets unique names).
func (t Trace) WithDefaults() Trace {
	if t.Policy == "" {
		t.Policy = qos.NameFIFO
	}
	if t.Backend == "" {
		t.Backend = "lustre"
	}
	if t.Seed == 0 {
		t.Seed = 1
	}
	jobs := make([]job.Spec, len(t.Jobs))
	for i, s := range t.Jobs {
		if s.Name == "" && s.Workload != "" {
			s.Name = fmt.Sprintf("%s%d", s.Workload, i)
		}
		s = s.WithDefaults()
		// Machine-level knobs are the trace's; stamp them so each job's
		// spec is self-consistent (Validate rejects conflicting values).
		s.Backend = t.Backend
		s.PEsPerNode = t.PEsPerNode
		s.Seed = t.Seed
		jobs[i] = s
	}
	t.Jobs = jobs
	return t
}

// Validate checks the trace after WithDefaults: at least one job, every
// job valid, names unique, and no job trying to set a machine-level knob
// the trace owns. Violations come back as job.ValidationError with the
// field qualified by the job's position.
func (t Trace) Validate() error {
	if len(t.Jobs) == 0 {
		return &job.ValidationError{Field: "Jobs", Msg: "empty trace"}
	}
	if _, err := qos.New(t.Policy); err != nil {
		return &job.ValidationError{Field: "Policy", Msg: err.Error()}
	}
	seen := make(map[string]bool, len(t.Jobs))
	for i, s := range t.Jobs {
		qual := func(f string) string { return fmt.Sprintf("Jobs[%d].%s", i, f) }
		if err := s.Validate(); err != nil {
			if ve, ok := err.(*job.ValidationError); ok {
				return &job.ValidationError{Field: qual(ve.Field), Msg: ve.Msg}
			}
			return err
		}
		if seen[s.Name] {
			return &job.ValidationError{Field: qual("Name"), Msg: fmt.Sprintf("duplicate name %q", s.Name)}
		}
		seen[s.Name] = true
		if s.Scenario != "" {
			return &job.ValidationError{Field: qual("Scenario"), Msg: "faults are trace-level (set Trace.Scenario)"}
		}
		if s.Backend != "" && s.Backend != t.Backend {
			return &job.ValidationError{Field: qual("Backend"), Msg: "the backend is shared (set Trace.Backend)"}
		}
		if s.PEsPerNode != 0 && s.PEsPerNode != t.PEsPerNode {
			return &job.ValidationError{Field: qual("PEsPerNode"), Msg: "node width is trace-level (set Trace.PEsPerNode)"}
		}
	}
	return nil
}

// Procs is the trace's total rank count.
func (t Trace) Procs() int {
	n := 0
	for _, s := range t.Jobs {
		n += s.Procs
	}
	return n
}

// Encode marshals the trace as indented JSON.
func (t Trace) Encode() []byte {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// DecodeTrace parses a trace, rejecting unknown fields like job.Decode.
func DecodeTrace(data []byte) (Trace, error) {
	var t Trace
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Trace{}, fmt.Errorf("tenancy: decoding trace: %w", err)
	}
	if dec.More() {
		return Trace{}, fmt.Errorf("tenancy: trailing data after trace object")
	}
	return t, nil
}
