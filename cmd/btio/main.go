// Command btio mirrors the NAS BT-IO full-mode experiment of the paper's
// Section 5.3: the solver's diagonally multi-partitioned solution array is
// appended to a shared file with collective I/O. Each process's cells
// scatter across the whole solution, so ParColl must switch to intermediate
// file views (the paper's Figure 4(c) pattern). Reproduces Figure 10.
// -procs caps the (square) process counts swept.
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
	verify := flag.Bool("verify", false, "verify file contents of a ParColl run")
	c := cli.Register(576)
	c.RegisterScenario("")
	flag.Parse()
	c.ResolveSpec(job.WorkloadBTIO)

	p := experiments.PaperPreset()
	c.Apply(&p)
	var procs []int
	for _, n := range []int{16, 64, 144, 256, 324, 576} {
		k := 1
		for k*k < n {
			k++
		}
		if n <= c.Spec.Procs && k*k == n && p.BT.N%int64(k) == 0 {
			procs = append(procs, n)
		}
	}
	if len(procs) == 0 {
		cli.Fatalf("btio: no BT-IO process count fits under -procs %d (the smallest the sweep runs is 16)", c.Spec.Procs)
	}
	points := p.BTIOScale(procs, func(n int) []int {
		var gs []int
		for _, g := range []int{4, 8, 16, 32, 64} {
			if g*4 <= n {
				gs = append(gs, g)
			}
		}
		return gs
	})
	if c.JSON {
		cli.EmitJSON("btio-scale", points)
	} else {
		t := stats.NewTable("procs", "baseline", "ParColl(best)", "groups", "speedup")
		for _, pt := range points {
			t.AddRow(pt.Procs, stats.MBps(pt.BaselineBW), stats.MBps(pt.ParCollBW),
				pt.BestGroups, fmt.Sprintf("%.1fx", pt.ParCollBW/pt.BaselineBW))
		}
		fmt.Printf("NAS BT-IO full mode (%d^3 cells, %d dumps; Fig 10)\n\n", p.BT.N, p.BT.Steps)
		fmt.Println(t)
	}
	if *verify {
		n := procs[0]
		if err := experiments.Verify(p, job.Spec{Workload: job.WorkloadBTIO, Procs: n, Groups: 4}); err != nil {
			cli.Fatalf("VERIFY FAILED: %v", err)
		}
		fmt.Printf("verify: %d-proc BT-IO file byte-exact\n", n)
	}
}
