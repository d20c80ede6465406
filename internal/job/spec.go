// Package job defines the declarative run description shared by every cmd
// tool and the multi-tenant trace layer. A Spec is what used to be spread
// over ~15 cli flags and experiments.Preset fields: one JSON-round-trippable
// value naming the workload, its geometry, the MPI-IO hints, the storage
// backend, the fault scenario, and — for multi-tenant traces — the job's
// arrival time. A multi-tenant run is just a []Spec plus a QoS policy name
// (internal/tenancy.Trace).
//
// The package is deliberately leaf-level: pure data, validation, and
// defaults. Converting a Spec into a live experiments.Preset/core.Options
// lives in internal/experiments (ApplySpec/OptionsFor), so the dependency
// arrow points from the harness down to the description, never back.
package job

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/fault"
)

// Workload names a Spec may carry, in catalog order. "tileio" is the
// paper's MPI-Tile-IO, "ior" the shared-file IOR, "btio" NAS BT-IO full
// mode, "flashio" the FLASH checkpoint, "checkpoint" the strided N-1
// checkpoint-burst from the backend sweeps.
const (
	WorkloadTileIO     = "tileio"
	WorkloadIOR        = "ior"
	WorkloadBTIO       = "btio"
	WorkloadFlashIO    = "flashio"
	WorkloadCheckpoint = "checkpoint"
)

// WorkloadNames lists the valid Spec.Workload values.
func WorkloadNames() []string {
	return []string{WorkloadTileIO, WorkloadIOR, WorkloadBTIO, WorkloadFlashIO, WorkloadCheckpoint}
}

// BackendNames lists the valid Spec.Backend values: the storage backends
// experiments.Preset builds and the cmd tools' -backend flag accepts.
func BackendNames() []string { return []string{"lustre", "listio", "bb"} }

// Hints is the declarative subset of the MPI-IO hints a Spec can set —
// the two knobs the paper's evaluation varies. The full mpiio.Hints stays
// available to library callers; tools that need the exotic knobs
// (aggregator lists, alltoallv ablation) construct options directly.
type Hints struct {
	// CBNodes caps the aggregator count (0 = one per node).
	CBNodes int `json:"cb_nodes,omitempty"`
	// CBBufferSize is the per-aggregator collective buffer in real bytes
	// (0 = the preset's scaled 4 MB-virtual default).
	CBBufferSize int64 `json:"cb_buffer_size,omitempty"`
}

// Spec is one job: a workload at a geometry, on a backend, under a fault
// scenario, arriving at a virtual time. The zero value is not runnable —
// call WithDefaults, then Validate. All fields marshal with omitempty, so
// a Spec round-trips through JSON exactly: decode(encode(s)) == s.
type Spec struct {
	// Name labels the job in reports and file names; WithDefaults derives
	// one from the workload when empty. Within a trace, names must be
	// unique (tenancy.Trace validation enforces it).
	Name string `json:"name,omitempty"`
	// Workload is one of WorkloadNames(). Required.
	Workload string `json:"workload"`
	// Procs is the number of simulated processes. Required, > 0.
	Procs int `json:"procs"`
	// Groups is the requested ParColl subgroup count; 0 or 1 runs the
	// unpartitioned baseline.
	Groups int `json:"groups,omitempty"`
	// Seed is the simulation seed (WithDefaults: 1).
	Seed int64 `json:"seed,omitempty"`
	// Arrival is the job's start offset in virtual seconds from trace
	// start. Single-job tools leave it 0.
	Arrival float64 `json:"arrival,omitempty"`
	// Scenario names a fault scenario from the fault catalog ("" =
	// healthy). In a trace the scenario is a property of the shared
	// hardware, so tenancy.Trace carries its own and rejects per-job ones.
	Scenario string `json:"scenario,omitempty"`
	// Backend selects the storage backend (WithDefaults: "lustre").
	Backend string `json:"backend,omitempty"`
	// BBCapacity is the per-node staging capacity in virtual bytes for the
	// "bb" backend (0 = unlimited).
	BBCapacity int64 `json:"bb_capacity,omitempty"`
	// BBDrainBW is the per-node drain bandwidth in bytes/second for the
	// "bb" backend (0 = the under-backend's native pace).
	BBDrainBW float64 `json:"bb_drain_bw,omitempty"`
	// PEsPerNode overrides the simulated PEs per node (0 = the cluster
	// default of 2; fat nodes go up to 64).
	PEsPerNode int `json:"pes_per_node,omitempty"`
	// IntraNode turns on two-level collective I/O.
	IntraNode bool `json:"intranode,omitempty"`
	// Hints carries the declarative MPI-IO hints.
	Hints Hints `json:"hints,omitempty"`

	// Steps overrides the workload's step/dump count where it has one
	// (btio, checkpoint); 0 keeps the preset geometry.
	Steps int `json:"steps,omitempty"`
	// Compute is the per-rank compute seconds between checkpoint dumps
	// (checkpoint workload only).
	Compute float64 `json:"compute,omitempty"`
	// BlockBytes overrides the checkpoint workload's real bytes per rank
	// per step; 0 keeps the preset geometry.
	BlockBytes int64 `json:"block_bytes,omitempty"`
	// Interleave stripes each checkpoint block across the step's file
	// range in chunks of this many real bytes (0 = contiguous). Must
	// divide the effective block size; ApplySpec checks the preset's
	// block when BlockBytes is 0.
	Interleave int64 `json:"interleave,omitempty"`
}

// ValidationError reports one invalid Spec field.
type ValidationError struct {
	Field string // Spec field name, e.g. "Procs"
	Msg   string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("job: invalid %s: %s", e.Field, e.Msg)
}

func bad(field, format string, args ...any) *ValidationError {
	return &ValidationError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// WithDefaults returns the spec with every defaultable field filled: the
// single place defaults live, so the flag parsers, the JSON loader, and the
// trace builder all agree. Required fields (Workload, Procs) are left for
// Validate to reject.
func (s Spec) WithDefaults() Spec {
	if s.Name == "" && s.Workload != "" {
		s.Name = s.Workload
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Backend == "" {
		s.Backend = "lustre"
	}
	return s
}

// Validate checks every field, returning a *ValidationError for the first
// violation (nil when the spec is runnable).
func (s Spec) Validate() error {
	ok := false
	for _, w := range WorkloadNames() {
		if s.Workload == w {
			ok = true
		}
	}
	if !ok {
		return bad("Workload", "%q (want one of %s)", s.Workload, strings.Join(WorkloadNames(), ", "))
	}
	if s.Procs <= 0 {
		return bad("Procs", "%d (want > 0)", s.Procs)
	}
	if s.Groups < 0 {
		return bad("Groups", "%d (want >= 0)", s.Groups)
	}
	if s.Groups > s.Procs {
		return bad("Groups", "%d exceeds procs %d", s.Groups, s.Procs)
	}
	if s.Arrival < 0 {
		return bad("Arrival", "%g (want >= 0)", s.Arrival)
	}
	if s.Scenario != "" {
		if _, err := fault.Scenario(s.Scenario); err != nil {
			return bad("Scenario", "%v", err)
		}
	}
	if s.Backend != "" {
		ok = false
		for _, b := range BackendNames() {
			if s.Backend == b {
				ok = true
			}
		}
		if !ok {
			return bad("Backend", "%q (want one of %s)", s.Backend, strings.Join(BackendNames(), ", "))
		}
	}
	if s.BBCapacity < 0 {
		return bad("BBCapacity", "%d (want >= 0)", s.BBCapacity)
	}
	if s.BBDrainBW < 0 {
		return bad("BBDrainBW", "%g (want >= 0)", s.BBDrainBW)
	}
	if s.PEsPerNode != 0 && (s.PEsPerNode < 2 || s.PEsPerNode > 64) {
		return bad("PEsPerNode", "%d (want 0 or 2..64)", s.PEsPerNode)
	}
	if s.Hints.CBNodes < 0 {
		return bad("Hints.CBNodes", "%d (want >= 0)", s.Hints.CBNodes)
	}
	if s.Hints.CBBufferSize < 0 {
		return bad("Hints.CBBufferSize", "%d (want >= 0)", s.Hints.CBBufferSize)
	}
	if s.Steps < 0 {
		return bad("Steps", "%d (want >= 0)", s.Steps)
	}
	if s.Compute < 0 {
		return bad("Compute", "%g (want >= 0)", s.Compute)
	}
	if s.BlockBytes < 0 {
		return bad("BlockBytes", "%d (want >= 0)", s.BlockBytes)
	}
	if s.Interleave < 0 {
		return bad("Interleave", "%d (want >= 0)", s.Interleave)
	}
	if s.Interleave > 0 && s.BlockBytes > 0 && s.BlockBytes%s.Interleave != 0 {
		return bad("Interleave", "%d does not divide block_bytes %d", s.Interleave, s.BlockBytes)
	}
	return nil
}

// Encode marshals the spec as indented JSON (stable field order, trailing
// newline) — the format the -spec flag reads back.
func (s Spec) Encode() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // no Spec field can fail to marshal
	}
	return append(b, '\n')
}

// Decode parses one Spec from JSON, rejecting unknown fields — a typo'd
// knob in a spec file fails loudly instead of silently running defaults.
// The decoded spec is returned as-is: callers apply WithDefaults and
// Validate themselves (the trace loader needs the raw form to distinguish
// "unset" from "explicitly zero").
func Decode(data []byte) (Spec, error) { return DecodeOver(Spec{}, data) }

// DecodeOver is Decode starting from base instead of the zero Spec: a
// field the document sets wins, one it omits keeps base's value. The cmd
// tools decode a -spec file over their flag values this way.
func DecodeOver(base Spec, data []byte) (Spec, error) {
	s := base
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("job: decoding spec: %w", err)
	}
	// Trailing garbage after the object is an error too.
	if dec.More() {
		return Spec{}, fmt.Errorf("job: trailing data after spec object")
	}
	return s, nil
}

// DecodeList parses a JSON array of Specs (a trace's job list), with the
// same unknown-field strictness as Decode.
func DecodeList(data []byte) ([]Spec, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("job: decoding spec list: %w", err)
	}
	out := make([]Spec, 0, len(raw))
	for i, r := range raw {
		s, err := Decode(r)
		if err != nil {
			return nil, fmt.Errorf("job: spec %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}
