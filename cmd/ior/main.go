// Command ior mirrors the IOR shared-file collective experiment of the
// paper's Section 5.1: every process writes a contiguous block into one
// shared file in fixed-size transfer units through collective I/O, with a
// configurable number of ParColl subgroups.
package main

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	groups := flag.String("groups", "1,2,4,8,16", "comma list of subgroup counts to sweep")
	verify := flag.Bool("verify", false, "verify file contents after each run")
	ostStats := flag.Bool("oststats", false, "print per-OST service statistics for the last configuration")
	backends := flag.Bool("backends", false,
		"sweep the storage backends instead: strided independent write + checkpoint burst on every -backend choice")
	burstRatio := flag.Float64("burst-ratio", 1, "checkpoint-burst compute per step as a multiple of the reference I/O time")
	c := cli.Register(128)
	c.RegisterScenario("")
	flag.Parse()
	c.ResolveSpec(job.WorkloadIOR)

	p := experiments.PaperPreset()
	c.Apply(&p)
	if *backends {
		runBackendSweep(p, c, *burstRatio)
		return
	}
	gs := cli.ParseInts("group count", *groups)

	points := p.IORGroups([]int{c.Spec.Procs}, func(int) []int { return gs })
	if c.JSON {
		cli.EmitJSON("ior-groups", points)
	} else {
		fmt.Printf("IOR collective write: %d procs, %s virtual per proc in %s units\n\n",
			c.Spec.Procs, stats.Bytes(p.IORBlock*int64(p.IORScale)), stats.Bytes(p.IORTransfer*int64(p.IORScale)))
		t := stats.NewTable("config", "bandwidth")
		for _, pt := range points {
			label := fmt.Sprintf("ParColl-%d", pt.Groups)
			if pt.Groups == 1 {
				label = "baseline"
			}
			t.AddRow(label, stats.MBps(pt.BW))
		}
		fmt.Println(t)
	}
	if *ostStats {
		printOSTStats(p, c.Spec.Procs, gs[len(gs)-1])
	}
	if *verify {
		if err := experiments.Verify(p, job.Spec{Workload: job.WorkloadIOR, Procs: c.Spec.Procs, Groups: gs[len(gs)-1]}); err != nil {
			cli.Fatalf("VERIFY FAILED: %v", err)
		}
		fmt.Println("verify: file contents byte-exact")
	}
}

// runBackendSweep compares the storage backends head to head: the strided
// independent write (where list-I/O collapses per-extent requests) and the
// checkpoint burst (where the burst buffer hides drains under compute).
func runBackendSweep(p experiments.Preset, c *cli.Common, ratio float64) {
	names := job.BackendNames()
	sweep := p.BackendSweep(c.Spec.Procs, names)
	burst := p.CheckpointBurst(c.Spec.Procs, ratio, names)
	if c.JSON {
		cli.EmitJSON("backend-sweep", map[string]any{"strided": sweep, "burst": burst})
		return
	}
	fmt.Printf("Strided independent IOR write: %d procs, %s virtual per proc in %s units\n\n",
		c.Spec.Procs, stats.Bytes(p.IORBlock*int64(p.IORScale)), stats.Bytes(p.IORTransfer*int64(p.IORScale)))
	t := stats.NewTable("backend", "bandwidth", "requests")
	for _, pt := range sweep {
		t.AddRow(pt.Backend, stats.MBps(pt.BW), fmt.Sprintf("%d", pt.Requests))
	}
	fmt.Println(t)
	fmt.Printf("\nCheckpoint burst (compute/IO ratio %g):\n\n", ratio)
	b := stats.NewTable("backend", "write-stall", "drain-tail", "elapsed")
	for _, pt := range burst {
		b.AddRow(pt.Backend, fmt.Sprintf("%.4fs", pt.WriteSecs),
			fmt.Sprintf("%.4fs", pt.DrainSecs), fmt.Sprintf("%.4fs", pt.Elapsed))
	}
	fmt.Println(b)
}

// printOSTStats reruns the last configuration and summarizes where the OST
// time went: requests, client switches, tail events, and the busiest
// targets — the storage-side view of the collective wall.
func printOSTStats(p experiments.Preset, nprocs, groups int) {
	env := experiments.EnvFor(p, p.IORScale, core.Options{NumGroups: groups})
	w := workload.IOR{Block: p.IORBlock, Transfer: p.IORTransfer}
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, p.Fault, func(r *mpi.Rank) {
		w.Write(r, env, "ior-stats")
	})
	st := env.FS.Stats()
	var req, sw, tails int64
	var busy float64
	for _, s := range st {
		req += s.Requests
		sw += s.Switches
		tails += s.Tails
		busy += s.BusySecs
	}
	fmt.Printf("\nOST statistics (ParColl-%d): %d requests, %d client switches, %d tail events, %.1fs total service\n\n",
		groups, req, sw, tails, busy)
	idx := make([]int, len(st))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return st[idx[a]].BusySecs > st[idx[b]].BusySecs })
	var bars []viz.Bar
	for _, i := range idx[:min(8, len(idx))] {
		bars = append(bars, viz.Bar{Label: fmt.Sprintf("OST %02d", i), Value: st[i].BusySecs})
	}
	fmt.Println(viz.BarChart(bars, 40, "%.2fs busy"))
}
