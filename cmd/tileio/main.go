// Command tileio mirrors the MPI-Tile-IO experiments of the paper's
// Section 5.2: a dense 2D dataset of one tile per process, written and read
// with collective I/O. It sweeps ParColl subgroup counts (-sweep groups) or
// process counts (-sweep procs), reproducing Figures 7/8 and 9.
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
	sweep := flag.String("sweep", "groups", "sweep mode: groups (Figs 7/8) or procs (Fig 9)")
	verify := flag.Bool("verify", false, "verify tile contents after a ParColl run")
	c := cli.Register(64)
	c.RegisterScenario("")
	flag.Parse()
	c.ResolveSpec(job.WorkloadTileIO)

	p := experiments.PaperPreset()
	c.Apply(&p)
	switch *sweep {
	case "groups":
		var groups []int
		for g := 1; g <= c.Spec.Procs; g *= 2 {
			groups = append(groups, g)
		}
		points := p.TileGroupSweep(c.Spec.Procs, groups)
		if c.JSON {
			cli.EmitJSON("tile-group-sweep", points)
			break
		}
		t := stats.NewTable("groups", "write", "read", "sync(s)", "sync-share")
		for _, pt := range points {
			t.AddRow(pt.Groups, stats.MBps(pt.WriteBW), stats.MBps(pt.ReadBW),
				pt.Sync, fmt.Sprintf("%.0f%%", pt.SyncShare*100))
		}
		fmt.Printf("MPI-Tile-IO vs subgroups (%d procs, %s virtual per tile)\n\n",
			c.Spec.Procs, stats.Bytes(p.Tile.TileBytes()*int64(p.TileScale)))
		fmt.Println(t)
	case "procs":
		var ps []int
		for n := 16; n <= c.Spec.Procs; n *= 2 {
			ps = append(ps, n)
		}
		points := p.TileScalability(ps, func(n int) []int {
			var gs []int
			for _, g := range []int{8, 16, 32, 64, 128} {
				if g*4 <= n {
					gs = append(gs, g)
				}
			}
			return gs
		})
		if c.JSON {
			cli.EmitJSON("tile-scalability", points)
			break
		}
		t := stats.NewTable("procs", "baseline", "ParColl(best)", "groups", "speedup")
		for _, pt := range points {
			t.AddRow(pt.Procs, stats.MBps(pt.BaselineBW), stats.MBps(pt.ParCollBW),
				pt.BestGroups, fmt.Sprintf("%.1fx", pt.ParCollBW/pt.BaselineBW))
		}
		fmt.Println("MPI-Tile-IO write scalability (Fig 9)")
		fmt.Println(t)
	default:
		cli.Fatalf("unknown sweep %q", *sweep)
	}
	if *verify {
		if err := experiments.Verify(p, job.Spec{Workload: job.WorkloadTileIO, Procs: c.Spec.Procs, Groups: 4}); err != nil {
			cli.Fatalf("VERIFY FAILED: %v", err)
		}
		fmt.Println("verify: tile contents byte-exact")
	}
}
