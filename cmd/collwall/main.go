// Command collwall dissects collective I/O the way the paper's Section 2
// does: it profiles the MPI-Tile-IO workload under the unpartitioned
// two-phase protocol across process counts and prints the time breakdown
// into synchronization, point-to-point exchange, and file I/O — the data
// behind Figures 1 and 2 (the "collective wall").
//
// Modes are subcommands:
//
//	collwall wall       profile the collective wall across process counts (default)
//	collwall sweep      straggler-severity sweep, ext2ph vs ParColl
//	collwall overlap    compute/IO-ratio sweep, blocking vs split collectives
//	collwall failures   fail-stop recovery comparison (-scenario names the plan, default all)
//	collwall scenarios  baseline vs ParColl under fault scenarios (-scenario, default all)
//	collwall gantt      per-rank timeline of one run at -procs ranks
//
// Observability: every mode accepts -trace-out and -metrics. Both run one
// instrumented tile write at the mode's -procs/-groups (under -scenario's
// plan when one is named), export it as a Perfetto/Chrome trace_event JSON
// file, and report the metrics snapshot plus the critical-path analysis —
// which rank and phase bounded completion.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/stats"
)

// modes lists the subcommands in help order; "wall" is the default.
var modes = []string{"wall", "sweep", "overlap", "failures", "scenarios", "gantt"}

// dispatch splits the argument list into a subcommand and the remaining
// flag arguments. An argument list that does not start with a known
// subcommand comes back with mode "", which runs the default.
func dispatch(args []string) (mode string, rest []string) {
	if len(args) > 0 {
		for _, m := range modes {
			if args[0] == m {
				return m, args[1:]
			}
		}
	}
	return "", args
}

func main() {
	mode, rest := dispatch(os.Args[1:])
	maxProcs := flag.Int("maxprocs", 512, "largest process count to profile")
	minProcs := flag.Int("minprocs", 16, "smallest process count to profile")
	groups := flag.Int("groups", 8, "ParColl subgroup count for the sweep, overlap, failures and scenarios modes")
	severities := flag.String("severities", "0,1,2,4,8", "comma-separated severity levels for the sweep mode")
	ratios := flag.String("ratios", "0,0.25,0.5,1,2", "comma-separated compute/IO ratios for the overlap mode")
	steps := flag.Int("steps", 6, "collective dumps per run for the overlap mode")
	c := cli.Register(64)
	c.RegisterScenario("fault scenario for the failures and scenarios modes ('all' runs the catalog: " + strings.Join(fault.Names(), ", ") + ")")
	c.RegisterObs()
	flag.CommandLine.Parse(rest)
	if c.Spec.Scenario == "all" {
		c.Spec.Scenario = "" // the catalog, as when the flag is omitted
	}
	c.ResolveSpec("")

	// The modes take the scenario's plan themselves (nil = the whole
	// catalog); the presets get only the machine knobs.
	plan := c.Plan()
	c.Spec.Scenario = ""

	// The observability surface rides along with whatever mode ran.
	defer maybeObserve(c, plan, *groups)

	switch mode {
	case "gantt":
		renderGantt(c)
	case "overlap":
		runOverlap(c, *groups, *steps, cli.ParseFloats("ratio", *ratios))
	case "sweep":
		runSweep(c, *groups, cli.ParseFloats("severity", *severities))
	case "failures":
		runFailures(c, plan, *groups)
	case "scenarios":
		runScenarios(c, plan, *groups)
	default:
		runWall(c, *minProcs, *maxProcs)
	}
}

// runWall is the default mode: the collective-wall profile across process
// counts (Figures 1 and 2).
func runWall(c *cli.Common, minProcs, maxProcs int) {
	p := experiments.PaperPreset()
	c.Apply(&p)
	var procs []int
	for n := minProcs; n <= maxProcs; n *= 2 {
		procs = append(procs, n)
	}
	points := p.CollectiveWall(procs)
	if c.JSON {
		cli.EmitJSON("collective-wall", points)
		return
	}

	t := stats.NewTable("procs", "sync(s)", "exchange(s)", "io(s)", "total(s)", "sync-share")
	for _, pt := range points {
		t.AddRow(pt.Procs, pt.Breakdown.Sync, pt.Breakdown.Exchange, pt.Breakdown.IO,
			pt.Breakdown.Total(), fmt.Sprintf("%.0f%%", pt.SyncShare()*100))
	}
	fmt.Println("Collective wall profile (MPI-Tile-IO, baseline extended two-phase)")
	fmt.Println(t)
	last := points[len(points)-1]
	if last.SyncShare() > 0.5 {
		fmt.Printf("At %d processes synchronization consumes %.0f%% of collective I/O time —\n",
			last.Procs, last.SyncShare()*100)
		fmt.Println("the collective wall the paper identifies (72% at 512 procs on Jaguar).")
	}
}

// maybeObserve runs one instrumented tile write when -trace-out or -metrics
// asked for it: the trace recorder and metrics registry thread through every
// layer, the Perfetto export is schema-validated before it is written, and
// the critical-path report names the bounding rank and phase.
func maybeObserve(c *cli.Common, plan *fault.Plan, groups int) {
	if c.TraceOut == "" && !c.Metrics {
		return
	}
	p := experiments.BenchPreset()
	c.Apply(&p)
	o := experiments.ObservedTileWrite(p, c.Spec.Procs, groups, plan)
	if c.TraceOut != "" {
		data, err := o.Perfetto()
		if err != nil {
			cli.Fatalf("collwall: trace export: %v", err)
		}
		if err := cli.ValidateTraceEvents(data); err != nil {
			cli.Fatalf("collwall: trace export failed validation: %v", err)
		}
		if err := os.WriteFile(c.TraceOut, data, 0o644); err != nil {
			cli.Fatalf("collwall: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d spans, load in ui.perfetto.dev or chrome://tracing\n",
			c.TraceOut, o.Trace.Len())
	}
	if c.Metrics {
		if c.JSON {
			cli.EmitJSON("observability", map[string]any{
				"metrics":       o.Snapshot,
				"critical_path": o.Path,
			})
			return
		}
		fmt.Printf("\nInstrumented tile write (%d procs, %d groups): %.6fs, %.2f GB/s\n",
			c.Spec.Procs, groups, o.Result.Elapsed, o.Result.Bandwidth()/1e9)
		fmt.Print(o.Snapshot.String())
		fmt.Print(o.Path.String())
	}
}

// runOverlap is the split-collective demonstration: the same multi-step tile
// write at each compute/IO ratio, blocking vs split, ext2ph vs ParColl —
// first healthy, then under the one-straggler scenario. Split collectives
// retire the two-phase rounds' I/O tails while the application computes, so
// as the ratio grows the hidden fraction rises and the split variants pull
// ahead of their blocking twins.
func runOverlap(c *cli.Common, groups, steps int, ratios []float64) {
	nprocs := c.Spec.Procs
	p := experiments.BenchPreset()
	c.Apply(&p)
	plan, err := fault.Scenario(fault.OneStraggler)
	if err != nil {
		panic(err)
	}
	pts := p.OverlapSweep(nprocs, groups, steps, ratios, nil)
	pts = append(pts, p.OverlapSweep(nprocs, groups, steps, ratios, plan)...)
	if c.JSON {
		cli.EmitJSON("overlap-sweep", pts)
		return
	}
	t := stats.NewTable("scenario", "ratio", "block-ext2ph(s)", "split-ext2ph(s)",
		fmt.Sprintf("block-parcoll-%d(s)", groups), fmt.Sprintf("split-parcoll-%d(s)", groups),
		"hidden-ext2ph", "hidden-parcoll")
	for _, pt := range pts {
		t.AddRow(pt.Scenario, pt.Ratio, pt.BlockExt2ph, pt.SplitExt2ph,
			pt.BlockParColl, pt.SplitParColl,
			fmt.Sprintf("%.0f%%", pt.HiddenExt2ph*100),
			fmt.Sprintf("%.0f%%", pt.HiddenParColl*100))
	}
	fmt.Printf("Overlap sweep (MPI-Tile-IO write, %d procs, %d dumps; ratio = compute per dump / blocking dump time)\n", nprocs, steps)
	fmt.Println(t)
	last := pts[len(ratios)-1]
	fmt.Printf("At ratio %g the split ParColl pipeline hides %.0f%% of its I/O tail and runs %.3fs faster than blocking ParColl.\n",
		last.Ratio, last.HiddenParColl*100, last.SplitGain())
}

// runSweep is the quantitative collective-wall demonstration: the same tile
// workload under growing straggler severity, baseline extended two-phase
// (groups=1) against ParColl. The baseline pays the maximum per-round stall
// over every rank at each globally synchronized round; ParColl pays only
// the maximum within each subgroup, so its elapsed time degrades strictly
// slower.
func runSweep(c *cli.Common, groups int, severities []float64) {
	nprocs := c.Spec.Procs
	p := experiments.BenchPreset()
	c.Apply(&p)
	pts := p.StragglerSweep(nprocs, groups, severities)
	if c.JSON {
		cli.EmitJSON("straggler-sweep", pts)
		return
	}
	t := stats.NewTable("severity", "ext2ph(s)", fmt.Sprintf("parcoll-%d(s)", groups), "gap(s)", "ext2ph-degr(s)", "parcoll-degr(s)")
	base := pts[0]
	for _, pt := range pts {
		t.AddRow(pt.Severity, pt.Ext2ph, pt.ParColl, pt.Gap(),
			fmt.Sprintf("%+.4f", pt.Ext2ph-base.Ext2ph),
			fmt.Sprintf("%+.4f", pt.ParColl-base.ParColl))
	}
	fmt.Printf("Straggler sweep (MPI-Tile-IO write, %d procs, heavy-tailed per-round noise)\n", nprocs)
	fmt.Println(t)
	last := pts[len(pts)-1]
	fmt.Printf("At severity %g the straggler noise costs the unpartitioned protocol %.3fs but ParColl-%d only %.3fs —\n",
		last.Severity, last.Ext2ph-base.Ext2ph, groups, last.ParColl-base.ParColl)
	fmt.Println("partitioning confines each straggler event to one subgroup instead of the whole job.")
}

// runScenarios profiles baseline vs ParColl tile writes under one named
// fault scenario's plan, or the whole catalog when plan is nil.
func runScenarios(c *cli.Common, plan *fault.Plan, groups int) {
	nprocs := c.Spec.Procs
	p := experiments.BenchPreset()
	c.Apply(&p)
	var pts []experiments.ScenarioPoint
	if plan == nil {
		pts = p.ScenarioSuite(nprocs, groups)
	} else {
		pts = append(pts, p.TileUnderFault(nprocs, 1, plan), p.TileUnderFault(nprocs, groups, plan))
	}
	if c.JSON {
		cli.EmitJSON("fault-scenarios", pts)
		return
	}
	t := stats.NewTable("scenario", "groups", "elapsed(s)", "sync(s)", "io(s)", "perturbed-msgs")
	for _, pt := range pts {
		t.AddRow(pt.Scenario, pt.Groups, pt.Elapsed, pt.Breakdown.Sync, pt.Breakdown.IO, pt.Perturbed)
	}
	fmt.Printf("Fault scenarios (MPI-Tile-IO write, %d procs; groups=1 is baseline ext2ph)\n", nprocs)
	fmt.Println(t)
}

// runFailures is the fail-stop recovery demonstration: the tile write runs
// under crash-carrying plans, every rank's tile is verified byte-for-byte
// after recovery, and the detection/failover telemetry is compared between
// the unpartitioned baseline and ParColl. Partitioning confines failure
// detection and domain re-partitioning to the crashed aggregator's subgroup,
// so ParColl's time-to-recover comes out strictly lower.
func runFailures(c *cli.Common, plan *fault.Plan, groups int) {
	nprocs := c.Spec.Procs
	p := experiments.BenchPreset()
	c.Apply(&p)
	var pts []experiments.FailurePoint
	if plan == nil {
		pts = p.RecoverySuite(nprocs, groups)
	} else {
		pts = append(pts, p.TileUnderFailure(nprocs, 1, plan), p.TileUnderFailure(nprocs, groups, plan))
	}
	if c.JSON {
		cli.EmitJSON("failure-recovery", pts)
		return
	}
	t := stats.NewTable("scenario", "groups", "elapsed(s)", "detect", "failover", "reelect",
		"ttr(ms)", "lost(B)", "goodput(GB/s)", "verified")
	for _, pt := range pts {
		t.AddRow(pt.Scenario, pt.Groups, pt.Elapsed,
			pt.Recovery.Detections, pt.Recovery.Failovers, pt.Recovery.Reelections,
			pt.Recovery.TimeToRecover*1e3, pt.LostBytes, pt.Goodput/1e9, pt.Verified)
	}
	fmt.Printf("Fail-stop recovery (MPI-Tile-IO write, %d procs; groups=1 is baseline ext2ph; verified = read-back matches the pattern byte-for-byte)\n", nprocs)
	fmt.Println(t)
}

// renderGantt traces one baseline tile-IO collective write and draws the
// per-rank timeline, making the interleaved sync/exchange/io rounds — and
// the waiting that builds the wall — directly visible.
func renderGantt(c *cli.Common) {
	nprocs := c.Spec.Procs
	p := experiments.PaperPreset()
	c.Apply(&p)
	rec := obs.NewRecorder()
	env := experiments.EnvFor(p, p.TileScale, core.Options{})
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, nil, func(r *mpi.Rank) {
		r.SetTracer(rec)
		p.Tile.Write(r, env, "tile")
	})
	fmt.Printf("one collective tile write, %d ranks (s=sync e=exchange i=io o=other)\n\n", nprocs)
	// Only the rank-level class spans: the protocol-round spans mpiio
	// records inside them would overdraw the timeline.
	fmt.Print(rec.Gantt(100, "sync", "exchange", "io", "other"))
	fmt.Println()
	t := stats.NewTable("class", "total seconds (all ranks)")
	for _, k := range []string{"sync", "exchange", "io", "other"} {
		t.AddRow(k, rec.ByKind()[k])
	}
	fmt.Println(t)
}
