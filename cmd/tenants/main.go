// Command tenants runs a multi-tenant trace — several independent jobs
// sharing one simulated file system — under a server-side QoS policy, and
// reports per-job elapsed time, bandwidth, collective-call latency
// quantiles, QoS admission delay, and (with -baseline) the slowdown each
// job suffered versus running alone on the same machine.
//
// Usage:
//
//	tenants                          # the canonical 4-job mixed trace, FIFO
//	tenants -policy fair             # same trace under fair queueing
//	tenants -sweep                   # compare every QoS policy on one trace
//	tenants -scenario one-straggler  # fault the shared machine
//	tenants -trace trace.json        # run a declarative trace file
//	tenants -emit-trace              # print the default trace as JSON and exit
//
// A trace file is a tenancy.Trace: a list of job.Specs (the same schema the
// single-job tools accept via -spec) plus trace-level policy/backend/seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/stats"
	"repro/internal/tenancy"
)

func main() {
	tracePath := flag.String("trace", "", "trace JSON file (tenancy.Trace); empty runs the built-in mixed trace")
	emit := flag.Bool("emit-trace", false, "print the effective trace as JSON and exit (a template for -trace)")
	policy := flag.String("policy", "", "QoS policy: "+strings.Join(qos.Names(), ", ")+" (default fifo; overrides the trace file's)")
	sweepAll := flag.Bool("sweep", false, "run the trace under every QoS policy and compare")
	baseline := flag.Bool("baseline", true, "also run each job isolated and report slowdown ratios")
	perJob := flag.Int("procs-per-job", 8, "size parameter of the built-in mixed trace (ignored with -trace)")
	scenario := flag.String("scenario", "", "fault scenario applied to the shared machine (overrides the trace file's)")
	seed := flag.Int64("seed", 0, "simulation seed (0 keeps the trace file's, default 1)")
	backend := flag.String("backend", "", "shared storage backend (overrides the trace file's)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of tables")
	metrics := flag.Bool("metrics", false, "print the observability snapshot (per-job gauges + shared-backend counters)")
	flag.Parse()

	t := tenancy.MixedTrace(*perJob)
	if *tracePath != "" {
		data, err := os.ReadFile(*tracePath)
		if err != nil {
			cli.Fatalf("reading -trace: %v", err)
		}
		t, err = tenancy.DecodeTrace(data)
		if err != nil {
			cli.Fatalf("%v", err)
		}
	}
	if *policy != "" {
		t.Policy = *policy
	}
	if *scenario != "" {
		t.Scenario = *scenario
	}
	if *seed != 0 {
		t.Seed = *seed
	}
	if *backend != "" {
		t.Backend = *backend
	}
	t = t.WithDefaults()
	if err := t.Validate(); err != nil {
		cli.Fatalf("%v", err)
	}
	if *emit {
		os.Stdout.Write(t.Encode())
		return
	}

	p := experiments.BenchPreset()
	if *sweepAll {
		reps, err := tenancy.Sweep(p, t, nil)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		if *jsonOut {
			cli.EmitJSON("tenancy-sweep", reps)
			return
		}
		for _, rep := range reps {
			printReport(rep, true)
		}
		printSweepSummary(reps)
		return
	}

	var rep tenancy.Report
	var err error
	reg := obs.New()
	switch {
	case *baseline:
		rep, err = tenancy.RunWithBaseline(p, t)
	case *metrics:
		rep, err = tenancy.RunObserved(p, t, reg)
	default:
		rep, err = tenancy.Run(p, t)
	}
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if *metrics && *baseline {
		// The baseline path has its own runs; capture the multi-tenant one.
		rep.FillObs(reg)
	}
	if *jsonOut {
		cli.EmitJSON("tenancy", rep)
		return
	}
	printReport(rep, *baseline)
	if *metrics {
		fmt.Print(reg.Snapshot().String())
	}
}

// printReport renders one trace run as a table; withSlowdown adds the
// vs-isolated ratio columns RunWithBaseline fills.
func printReport(rep tenancy.Report, withSlowdown bool) {
	fmt.Printf("policy=%s procs=%d makespan=%.6fs\n\n", rep.Policy, rep.Procs, rep.End)
	cols := []string{"job", "workload", "procs", "arrive", "elapsed(s)", "bw", "p50(s)", "p99(s)", "qos-delay(s)", "verified"}
	if withSlowdown {
		cols = append(cols, "slowdown", "slow-p99")
	}
	t := stats.NewTable(cols...)
	for _, j := range rep.Jobs {
		row := []any{j.Name, j.Workload, j.Procs, j.Arrival,
			fmt.Sprintf("%.6f", j.Elapsed()), stats.MBps(j.BW),
			fmt.Sprintf("%.6f", j.P50), fmt.Sprintf("%.6f", j.P99),
			fmt.Sprintf("%.6f", j.QoSDelaySecs), j.Verified}
		if withSlowdown {
			row = append(row, fmt.Sprintf("%.3fx", j.Slowdown), fmt.Sprintf("%.3fx", j.SlowdownP99))
		}
		t.AddRow(row...)
	}
	fmt.Println(t)
}

// printSweepSummary compares the policies head to head on the metrics the
// QoS layer exists to move: the smallest job's p99 slowdown and the trace's
// aggregate throughput.
func printSweepSummary(reps []tenancy.Report) {
	if len(reps) == 0 {
		return
	}
	small := 0
	for j, s := range reps[0].Jobs {
		if s.Procs < reps[0].Jobs[small].Procs {
			small = j
		}
	}
	t := stats.NewTable("policy", "makespan(s)", "agg-bytes/s",
		fmt.Sprintf("%s p99(s)", reps[0].Jobs[small].Name),
		fmt.Sprintf("%s slow-p99", reps[0].Jobs[small].Name))
	for _, rep := range reps {
		var bytes int64
		for _, j := range rep.Jobs {
			bytes += j.Bytes
		}
		agg := 0.0
		if rep.End > 0 {
			agg = float64(bytes) / rep.End
		}
		t.AddRow(rep.Policy, fmt.Sprintf("%.6f", rep.End), stats.MBps(agg),
			fmt.Sprintf("%.6f", rep.Jobs[small].P99),
			fmt.Sprintf("%.3fx", rep.Jobs[small].SlowdownP99))
	}
	fmt.Println("QoS policy comparison (smallest job is the latency-sensitive tenant)")
	fmt.Println(t)
}
