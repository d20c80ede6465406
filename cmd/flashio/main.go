// Command flashio mirrors the Flash I/O checkpoint experiment of the
// paper's Section 5.4: every process writes its AMR blocks for each of 24
// unknowns through an HDF5-like container over collective MPI-IO. It
// compares the default and 64-aggregator configurations, baseline vs
// ParColl, plus the no-collective-I/O reference. Reproduces Figure 11.
package main

import (
	"flag"
	"fmt"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/stats"
)

func main() {
	groups := flag.Int("groups", 64, "ParColl subgroup count")
	aggs := flag.Int("aggs", 64, "aggregator count for the hinted series")
	verify := flag.Bool("verify", false, "verify checkpoint contents of a ParColl run")
	c := cli.Register(256)
	c.RegisterScenario("")
	flag.Parse()
	c.ResolveSpec(job.WorkloadFlashIO)

	p := experiments.PaperPreset()
	c.Apply(&p)
	points := p.FlashSeries(c.Spec.Procs, *groups, *aggs)
	if c.JSON {
		cli.EmitJSON("flash-series", points)
	} else {
		fmt.Printf("Flash I/O checkpoint: %d procs, %d vars, %s virtual per proc\n\n",
			c.Spec.Procs, p.Flash.NVars,
			stats.Bytes(p.Flash.PerProcBytes()*int64(p.Flash.NVars)*int64(p.FlashScale)))
		t := stats.NewTable("series", "bandwidth")
		for _, pt := range points {
			t.AddRow(pt.Label, stats.MBps(pt.BW))
		}
		fmt.Println(t)
	}
	if *verify {
		if err := experiments.Verify(p, job.Spec{Workload: job.WorkloadFlashIO, Procs: min(c.Spec.Procs, 64), Groups: *groups}); err != nil {
			cli.Fatalf("VERIFY FAILED: %v", err)
		}
		fmt.Println("verify: checkpoint byte-exact")
	}
}
