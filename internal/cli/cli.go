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

// Common holds the flag values shared by every cmd tool. Register wires
// them to the default flag set.
//
// The run's knobs live in one job.Spec: the flags bind straight to its
// fields, ResolveSpec decodes the -spec file over it, and Apply hands it to
// experiments.Preset.ApplySpec — so a flag invocation and the equivalent
// spec file are the same code path.
type Common struct {
	Spec job.Spec // the run: -seed, -procs, -scenario and the machine knobs

	JSON     bool   // -json: machine-readable output
	TraceOut string // -trace-out: Perfetto trace_event JSON output path
	Metrics  bool   // -metrics: print the metrics snapshot + critical path
	SpecPath string // -spec: job spec JSON file overriding the flags above
}

// Register installs -json, -seed, -procs, -spec and the machine knobs on
// the default flag set and returns the Common that will receive their
// values at flag.Parse.
func Register(defaultProcs int) *Common {
	c := &Common{}
	s := &c.Spec
	flag.BoolVar(&c.JSON, "json", false, "emit JSON instead of tables")
	flag.Int64Var(&s.Seed, "seed", 1, "simulation seed")
	flag.IntVar(&s.Procs, "procs", defaultProcs, "number of simulated processes")
	flag.IntVar(&s.PEsPerNode, "pes-per-node", cluster.DefaultConfig().PEsPerNode,
		"simulated PEs per node (2 = the paper's dual-core XT4 nodes; up to 64 models fat multicore nodes)")
	flag.BoolVar(&s.IntraNode, "intranode", false,
		"enable two-level collective I/O: PEs sharing a node aggregate into their node leader before any traffic crosses the NIC")
	flag.StringVar(&s.Backend, "backend", "lustre",
		"storage backend ("+strings.Join(job.BackendNames(), ", ")+"): listio is a PVFS-style list-I/O farm, bb a node-local burst buffer over lustre")
	flag.Int64Var(&s.BBCapacity, "bb-capacity", 0,
		"burst-buffer capacity in virtual bytes per node (0 = unlimited; writes past it fall through to the backing store)")
	flag.Float64Var(&s.BBDrainBW, "bb-drain-bw", 0,
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
	flag.StringVar(&c.Spec.Scenario, "scenario", "", usage)
}

// RegisterObs installs the observability flags -trace-out and -metrics.
func (c *Common) RegisterObs() {
	flag.StringVar(&c.TraceOut, "trace-out", "",
		"write a Perfetto/Chrome trace_event JSON trace of an instrumented run to this file")
	flag.BoolVar(&c.Metrics, "metrics", false,
		"print the metrics snapshot and critical-path report of an instrumented run")
}

// Plan resolves the scenario to a fault plan: nil when none is named,
// otherwise the catalog plan. Unknown names are fatal with the catalog
// listed.
func (c *Common) Plan() *fault.Plan {
	if c.Spec.Scenario == "" {
		return nil
	}
	plan, err := fault.Scenario(c.Spec.Scenario)
	if err != nil {
		Fatalf("%v", err)
	}
	return plan
}

// ResolveSpec settles the run's spec: the -spec file, when given, decodes
// over the flag values (a field the file sets wins, one it omits keeps its
// flag value), then defaults are applied and the spec is validated.
// workloadName is the tool's workload ("" for multi-workload drivers like
// collwall, which use only the machine knobs and accept any workload); a
// spec file naming a different workload is fatal. Call after flag.Parse.
func (c *Common) ResolveSpec(workloadName string) {
	workload := workloadName
	if workload == "" {
		workload = job.WorkloadTileIO // placeholder: machine knobs only
	}
	c.Spec.Workload = workload
	if c.SpecPath != "" {
		data, err := os.ReadFile(c.SpecPath)
		if err != nil {
			Fatalf("reading -spec: %v", err)
		}
		if c.Spec, err = job.DecodeOver(c.Spec, data); err != nil {
			Fatalf("%v", err)
		}
		if c.Spec.Workload == "" { // Spec.Encode always writes the key
			c.Spec.Workload = workload
		}
		if workloadName != "" && c.Spec.Workload != workloadName {
			Fatalf("-spec %s describes a %q job but this tool runs %q", c.SpecPath, c.Spec.Workload, workloadName)
		}
	}
	c.Spec = c.Spec.WithDefaults()
	if err := c.Spec.Validate(); err != nil {
		Fatalf("%v", err)
	}
}

// Apply copies the run's knobs onto a preset through
// experiments.Preset.ApplySpec: the seed, the scenario's fault plan
// (threaded through every runner of the preset), the storage backend and
// the node topology knobs. A plan whose storage faults cannot reach the
// selected backend (bb-node loss without the bb tier, server failures
// without the listio farm) still runs — healthy at that layer, by design —
// but gets a stderr warning so a sweep that quietly measures nothing is
// noticed.
func (c *Common) Apply(p *experiments.Preset) {
	if err := p.ApplySpec(c.Spec); err != nil {
		Fatalf("%v", err)
	}
	if p.Fault == nil {
		return
	}
	if (p.Fault.HasBBFails() || p.Fault.HasDrainFails()) && p.Backend != "bb" {
		fmt.Fprintf(os.Stderr, "warning: scenario %q injects burst-buffer faults but -backend=%s has no staging tier; those faults are inert\n", c.Spec.Scenario, p.Backend)
	}
	if p.Fault.HasServerFails() && p.Backend != "listio" {
		fmt.Fprintf(os.Stderr, "warning: scenario %q injects pvfs server faults but -backend=%s is not the listio farm; those faults are inert\n", c.Spec.Scenario, p.Backend)
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
