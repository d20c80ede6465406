// Package cli centralizes the flags and output conventions shared by the
// cmd tools. Every tool registers the same core flags (-json, -seed, -procs,
// -scenario) through Common, resolves its fault scenario the same way, and
// emits machine-readable results through one JSON helper — so scripts can
// drive any tool interchangeably.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/job"
)

// Common holds the flag values shared by every cmd tool. Zero value is
// usable; Register wires the fields to the default flag set.
//
// The flags are a thin parser over job.Spec: ResolveSpec turns them into a
// declarative spec (or loads one from the -spec file, which overrides
// them), and Apply/ApplyBase route through experiments.ApplySpec — so a
// flag invocation and the equivalent spec file are the same code path.
type Common struct {
	JSON       bool   // -json: machine-readable output
	Seed       int64  // -seed: simulation seed
	Procs      int    // -procs: simulated process count
	Scenario   string // -scenario: named fault scenario applied to every run
	TraceOut   string // -trace-out: Perfetto trace_event JSON output path
	Metrics    bool   // -metrics: print the metrics snapshot + critical path
	PEsPerNode int    // -pes-per-node: simulated PEs per node (fat-node knob)
	IntraNode  bool   // -intranode: two-level intra-node aggregation

	Backend    string  // -backend: storage backend (lustre, listio, bb)
	BBCapacity int64   // -bb-capacity: burst-buffer virtual bytes per node
	BBDrainBW  float64 // -bb-drain-bw: burst-buffer drain bytes/sec per node

	SpecPath string // -spec: job spec JSON file overriding the flags above

	workload string    // the tool's workload, recorded by ResolveSpec
	spec     *job.Spec // the resolved spec, cached by ResolveSpec
}

// Register installs -json, -seed, -procs and the machine knobs on the
// default flag set and returns the Common that will receive their values
// at flag.Parse.
func Register(defaultProcs int) *Common {
	c := &Common{}
	flag.BoolVar(&c.JSON, "json", false, "emit JSON instead of tables")
	flag.Int64Var(&c.Seed, "seed", 1, "simulation seed")
	flag.IntVar(&c.Procs, "procs", defaultProcs, "number of simulated processes")
	flag.IntVar(&c.PEsPerNode, "pes-per-node", cluster.DefaultConfig().PEsPerNode,
		"simulated PEs per node (2 = the paper's dual-core XT4 nodes; up to 64 models fat multicore nodes)")
	flag.BoolVar(&c.IntraNode, "intranode", false,
		"enable two-level collective I/O: PEs sharing a node aggregate into their node leader before any traffic crosses the NIC")
	flag.StringVar(&c.Backend, "backend", "lustre",
		"storage backend ("+strings.Join(experiments.BackendNames(), ", ")+"): listio is a PVFS-style list-I/O farm, bb a node-local burst buffer over lustre")
	flag.Int64Var(&c.BBCapacity, "bb-capacity", 0,
		"burst-buffer capacity in virtual bytes per node (0 = unlimited; writes past it fall through to the backing store)")
	flag.Float64Var(&c.BBDrainBW, "bb-drain-bw", 0,
		"burst-buffer drain bandwidth in bytes/sec per node (0 = unthrottled; only the backing store paces the drain)")
	flag.StringVar(&c.SpecPath, "spec", "",
		"job spec JSON file (the declarative form of these flags); its values override the flag values")
	return c
}

// RegisterScenario installs -scenario. An empty usage gets the standard
// "apply a named fault scenario to every run" text; tools that give the flag
// extra semantics (collwall's catalog mode) pass their own.
func (c *Common) RegisterScenario(usage string) {
	if usage == "" {
		usage = "apply a named fault scenario to every run (" + strings.Join(fault.Names(), ", ") + ")"
	}
	flag.StringVar(&c.Scenario, "scenario", "", usage)
}

// RegisterObs installs the observability flags -trace-out and -metrics.
func (c *Common) RegisterObs() {
	flag.StringVar(&c.TraceOut, "trace-out", "",
		"write a Perfetto/Chrome trace_event JSON trace of an instrumented run to this file")
	flag.BoolVar(&c.Metrics, "metrics", false,
		"print the metrics snapshot and critical-path report of an instrumented run")
}

// Plan resolves the -scenario flag to a fault plan: nil when the flag is
// unset, otherwise the catalog plan. Unknown names are fatal with the
// catalog listed.
func (c *Common) Plan() *fault.Plan {
	if c.Scenario == "" {
		return nil
	}
	plan, err := fault.Scenario(c.Scenario)
	if err != nil {
		Fatalf("%v", err)
	}
	return plan
}

// ResolveSpec resolves the tool's effective job spec and caches it for
// Apply/ApplyBase. With -spec unset the spec is built from the flag values
// (so flags and specs are one code path, not two); with -spec set the file
// is decoded, defaulted and validated, and its values are copied BACK onto
// the Common fields so tools keep reading c.Procs, c.Seed etc. as before.
// workloadName is the tool's workload ("" for multi-workload drivers like
// collwall, which accept any workload and use only the machine knobs); a
// spec file naming a different workload is fatal. Call after flag.Parse.
func (c *Common) ResolveSpec(workloadName string) job.Spec {
	c.workload = workloadName
	var s job.Spec
	if c.SpecPath != "" {
		data, err := os.ReadFile(c.SpecPath)
		if err != nil {
			Fatalf("reading -spec: %v", err)
		}
		s, err = job.Decode(data)
		if err != nil {
			Fatalf("%v", err)
		}
		if s.Workload == "" {
			if workloadName != "" {
				s.Workload = workloadName
			} else {
				s.Workload = job.WorkloadTileIO // multi-workload driver: machine knobs only
			}
		}
		if workloadName != "" && s.Workload != workloadName {
			Fatalf("-spec %s describes a %q job but this tool runs %q", c.SpecPath, s.Workload, workloadName)
		}
		if s.Procs == 0 {
			s.Procs = c.Procs
		}
	} else {
		s = c.flagSpec(workloadName)
	}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		Fatalf("%v", err)
	}
	c.Seed, c.Procs, c.Scenario = s.Seed, s.Procs, s.Scenario
	c.PEsPerNode, c.IntraNode = s.PEsPerNode, s.IntraNode
	c.Backend, c.BBCapacity, c.BBDrainBW = s.Backend, s.BBCapacity, s.BBDrainBW
	c.spec = &s
	return s
}

// flagSpec is the declarative form of the flag values: the spec that -spec
// would have to contain to reproduce this invocation's shared knobs.
func (c *Common) flagSpec(workloadName string) job.Spec {
	if workloadName == "" {
		// Multi-workload drivers use the spec for machine knobs only; any
		// valid workload name satisfies validation.
		workloadName = job.WorkloadTileIO
	}
	return job.Spec{
		Workload:   workloadName,
		Procs:      c.Procs,
		Seed:       c.Seed,
		Scenario:   c.Scenario,
		Backend:    c.Backend,
		BBCapacity: c.BBCapacity,
		BBDrainBW:  c.BBDrainBW,
		PEsPerNode: c.PEsPerNode,
		IntraNode:  c.IntraNode,
	}
}

// resolved returns the cached spec, building one from the flags when the
// tool never called ResolveSpec. Apply/ApplyBase consume only the machine
// knobs, so a zero Procs (a Common built outside Register) is tolerated
// here; ResolveSpec is where the full job geometry gets validated.
func (c *Common) resolved() job.Spec {
	if c.spec != nil {
		return *c.spec
	}
	s := c.flagSpec(c.workload)
	if s.Procs == 0 {
		s.Procs = 1
	}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		Fatalf("%v", err)
	}
	return s
}

// Apply copies the shared knobs onto a preset via the declarative spec
// path (experiments.ApplySpec): the seed, the scenario's fault plan
// (threaded through every runner of the preset), the storage backend and
// the node topology knobs. A plan whose storage faults cannot reach the
// selected backend (bb-node loss without the bb tier, server failures
// without the listio farm) still runs — healthy at that layer, by design —
// but gets a stderr warning so a sweep that quietly measures nothing is
// noticed.
func (c *Common) Apply(p *experiments.Preset) {
	if err := p.ApplySpec(c.resolved()); err != nil {
		Fatalf("%v", err)
	}
	if p.Fault == nil {
		return
	}
	b := p.Backend
	if b == "" {
		b = "lustre"
	}
	if (p.Fault.HasBBFails() || p.Fault.HasDrainFails()) && b != "bb" {
		fmt.Fprintf(os.Stderr, "warning: scenario %q injects burst-buffer faults but -backend=%s has no staging tier; those faults are inert\n", c.Scenario, b)
	}
	if p.Fault.HasServerFails() && b != "listio" {
		fmt.Fprintf(os.Stderr, "warning: scenario %q injects pvfs server faults but -backend=%s is not the listio farm; those faults are inert\n", c.Scenario, b)
	}
}

// ApplyBase copies every shared knob except the fault plan onto a preset —
// for tools (collwall's modes) that resolve -scenario themselves.
func (c *Common) ApplyBase(p *experiments.Preset) {
	s := c.resolved()
	s.Scenario = ""
	if err := p.ApplySpecBase(s); err != nil {
		Fatalf("%v", err)
	}
}

// EmitJSON prints {"experiment": name, "points": points} with stable
// two-space indentation — the wire format every tool's -json mode shares.
func EmitJSON(name string, points any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"experiment": name, "points": points}); err != nil {
		panic(err)
	}
}

// Fatalf prints to stderr and exits nonzero.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// ParseInts parses a comma-separated list of positive ints; `what` names the
// flag in the error message.
func ParseInts(what, s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			Fatalf("bad %s %q", what, f)
		}
		out = append(out, v)
	}
	return out
}

// ParseFloats parses a comma-separated list of non-negative floats.
func ParseFloats(what, s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 {
			Fatalf("bad %s %q", what, f)
		}
		out = append(out, v)
	}
	return out
}

// validPhases is the set of trace_event phase codes the exporter emits.
var validPhases = map[string]bool{"X": true, "C": true, "M": true, "B": true, "E": true, "I": true, "i": true}

// ValidateTraceEvents sanity-checks a Perfetto/Chrome trace_event document:
// it must be a non-empty JSON array whose every element carries a non-empty
// "name" and a known "ph" code. This is the schema check `make obs` and the
// -trace-out path run before declaring a trace loadable.
func ValidateTraceEvents(data []byte) error {
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("trace is not a JSON array of objects: %w", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("trace array is empty")
	}
	for i, e := range events {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		if name == "" {
			return fmt.Errorf("event %d has no name", i)
		}
		if !validPhases[ph] {
			return fmt.Errorf("event %d (%q) has unknown phase %q", i, name, ph)
		}
	}
	return nil
}
