package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// printRun prints one run's numbers: every metric by name with its unit,
// the op tally, and the digest two commits are diffed by.
func printRun(w io.Writer, res runResult) {
	pass, defs := "end-to-end (tracing and profiling off)", endToEnd
	if res.Trace {
		pass, defs = "per-layer (traced pass)", perLayer
	}
	fmt.Fprintf(w, "\n== %s: %s ==\n", res.Workload, pass)
	var ops []string
	for _, k := range []string{"warmup", "timed", "traced", "instrumented", "par2"} {
		if n := res.Ops[k]; n > 0 {
			ops = append(ops, fmt.Sprintf("%d %s", n, k))
		}
	}
	fmt.Fprintf(w, "ops attempted %d (%s), failed %d, correct %v\n", res.Attempted, strings.Join(ops, ", "), res.Failed, res.Correct)
	fmt.Fprintf(w, "physics_digest %s\n", res.PhysicsDigest)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "ERROR %s\n", e)
	}
	for _, d := range defs {
		v := res.Metrics[d.name]
		val := fmt.Sprintf("%14.6g", v.Value)
		if v.NA {
			val = fmt.Sprintf("%14s", "n/a")
		}
		note := ""
		switch d.name {
		case "wall_ms_per_op":
			note = fmt.Sprintf("  median of %d ops", len(res.WallMs))
		case "harness.wall_ms_tail":
			note = fmt.Sprintf("  p%.1f of %d ops", res.TailPct, len(res.WallMs))
			if res.TailPct == 100 {
				note = fmt.Sprintf("  max of %d ops: too few for a percentile with ten samples beyond it", len(res.WallMs))
			}
		case "cpu.runtime_sched_share":
			note = fmt.Sprintf("  cpu.* from %d profile samples", res.CPUSamples)
		}
		fmt.Fprintf(w, "  %-32s %s %-7s %-7s%s\n", d.name, val, d.unit, d.clock, note)
	}
}

// printSpans prints, per span name, how often it ran, its total host time
// and its self time (total minus what its child spans cover).
func printSpans(w io.Writer, tr *tracer) {
	names, total, self, count := tr.selfTimes()
	fmt.Fprintf(w, "\nspans of %s (host time)\n  %-34s %6s %12s %12s\n", tr.workload, "name", "count", "total ms", "self ms")
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, n := range names {
		if n == "rep" {
			continue
		}
		fmt.Fprintf(w, "  %-34s %6d %12.2f %12.2f\n", n, count[n], ms(total[n]), ms(self[n]))
	}
}

// printSummary prints the end-to-end medians of a result file, one row per
// workload.
func printSummary(w io.Writer, rf resultFile) {
	fmt.Fprintf(w, "\n%-18s %5s", "end-to-end medians", "runs")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %18s", d.name+" "+d.unit)
	}
	fmt.Fprintln(w)
	for _, def := range workloads {
		runs := pick(rf, runKey{def.name, false})
		fmt.Fprintf(w, "%-18s %5d", def.name, len(runs))
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %18.6g", median(values(runs, d.name)))
		}
		fmt.Fprintln(w)
	}
}
