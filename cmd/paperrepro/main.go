// Command paperrepro regenerates every table and figure of the ParColl
// paper's evaluation and prints the measured series next to the paper's
// qualitative expectations.
//
// Usage:
//
//	paperrepro [-fig all|1|2|6|7|8|9|10|11] [-preset paper|bench] [-procs N]
//
// -procs caps the simulated process counts of every figure.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/viz"
)

var c *cli.Common

// timings controls the "[figN took X.Xs]" lines. `make paperrepro` turns it
// off so the checked-in transcript (paperrepro_output.txt) is a pure function
// of the simulation and regenerating it can't produce wall-clock noise diffs.
var timings bool

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: all,1,2,6,7,8,9,10,11")
	flag.BoolVar(&timings, "timings", true,
		"print wall-clock duration after each figure (disable for a deterministic transcript)")
	presetName := flag.String("preset", "paper", "parameter preset: paper or bench")
	// Machine overrides, named as experiments.Preset.SetParam names them;
	// only the ones given on the command line apply.
	params := map[string]*float64{
		"osts":     flag.Float64("osts", 0, "override number of OSTs"),
		"ostbw":    flag.Float64("ostbw", 0, "override per-OST bandwidth, bytes/s"),
		"latency":  flag.Float64("latency", 0, "override network latency, seconds"),
		"jitter":   flag.Float64("jitter", 0, "override OST service jitter fraction"),
		"tailprob": flag.Float64("tailprob", 0, "override OST heavy-tail probability"),
	}
	c = cli.Register(512)
	c.RegisterScenario("")
	flag.Parse()
	c.ResolveSpec("")
	switch *fig {
	case "all", "1", "2", "6", "7", "8", "9", "10", "11":
	default:
		cli.Fatalf("paperrepro: unknown -fig %q (want all,1,2,6,7,8,9,10,11)", *fig)
	}

	var p experiments.Preset
	switch *presetName {
	case "paper":
		p = experiments.PaperPreset()
	case "bench":
		p = experiments.BenchPreset()
	default:
		cli.Fatalf("unknown preset %q", *presetName)
	}
	c.Apply(&p)
	flag.Visit(func(f *flag.Flag) {
		if v, ok := params[f.Name]; ok {
			if err := p.SetParam(f.Name, *v); err != nil {
				cli.Fatalf("paperrepro: %v", err)
			}
		}
	})
	if !c.JSON {
		fmt.Printf("ParColl reproduction — preset %s, up to %d procs\n\n", p.Name, c.Spec.Procs)
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }
	if want("1") || want("2") {
		fig12(p, c.Spec.Procs)
	}
	if want("6") {
		fig6(p, c.Spec.Procs)
	}
	if want("7") || want("8") {
		fig78(p, c.Spec.Procs)
	}
	if want("9") {
		fig9(p, c.Spec.Procs)
	}
	if want("10") {
		fig10(p, c.Spec.Procs)
	}
	if want("11") {
		fig11(p, c.Spec.Procs)
	}
}

func capped(procs []int, maxProcs int) []int {
	var out []int
	for _, p := range procs {
		if p <= maxProcs {
			out = append(out, p)
		}
	}
	return out
}

func timed(name string, fn func()) {
	t0 := time.Now()
	fn()
	if !c.JSON && timings {
		fmt.Printf("[%s took %.1fs]\n\n", name, time.Since(t0).Seconds())
	}
}

func fig12(p experiments.Preset, maxProcs int) {
	timed("fig1+2", func() {
		procs := capped([]int{16, 32, 64, 128, 256, 512, 1024}, maxProcs)
		points := p.CollectiveWall(procs)
		if c.JSON {
			cli.EmitJSON("fig1+2-collective-wall", points)
			return
		}
		t := stats.NewTable("procs", "sync(s)", "exchange(s)", "io(s)", "sync-share")
		for _, pt := range points {
			t.AddRow(pt.Procs, pt.Breakdown.Sync, pt.Breakdown.Exchange, pt.Breakdown.IO,
				fmt.Sprintf("%.0f%%", pt.SyncShare()*100))
		}
		fmt.Println("Figure 1+2 — the collective wall (MPI-Tile-IO baseline breakdown)")
		fmt.Println("paper: sync share grows with procs, dominating (72%) by 512 procs")
		fmt.Println(t)
		var xs, sync, io []float64
		for _, pt := range points {
			xs = append(xs, float64(pt.Procs))
			sync = append(sync, pt.Breakdown.Sync)
			io = append(io, pt.Breakdown.IO)
		}
		fmt.Println(viz.TrendChart([]viz.Series{
			{Name: "sync seconds", X: xs, Y: sync, Marker: 's'},
			{Name: "io seconds", X: xs, Y: io, Marker: 'i'},
		}, 10))
	})
}

func groupsUpTo(nprocs, minGroupSize int) []int {
	var out []int
	for g := 1; g*minGroupSize <= nprocs; g *= 2 {
		out = append(out, g)
	}
	return out
}

func fig6(p experiments.Preset, maxProcs int) {
	timed("fig6", func() {
		procs := capped([]int{128, 512}, maxProcs)
		points := p.IORGroups(procs, func(n int) []int { return groupsUpTo(n, 8) })
		if c.JSON {
			cli.EmitJSON("fig6-ior", points)
			return
		}
		t := stats.NewTable("procs", "groups", "bandwidth")
		for _, pt := range points {
			label := fmt.Sprintf("ParColl-%d", pt.Groups)
			if pt.Groups == 1 {
				label = "Cray(base)"
			}
			t.AddRow(pt.Procs, label, stats.MBps(pt.BW))
		}
		fmt.Println("Figure 6 — IOR collective write (512 MB/proc in 4 MB units)")
		fmt.Println("paper: ParColl reaches 5301 MB/s vs 380 MB/s baseline at 512 procs (12.8x)")
		fmt.Println(t)
		var bars []viz.Bar
		for _, pt := range points {
			if pt.Procs != procs[len(procs)-1] {
				continue
			}
			label := fmt.Sprintf("%dp ParColl-%d", pt.Procs, pt.Groups)
			if pt.Groups == 1 {
				label = fmt.Sprintf("%dp baseline", pt.Procs)
			}
			bars = append(bars, viz.Bar{Label: label, Value: pt.BW / 1e6})
		}
		fmt.Println(viz.BarChart(bars, 46, "%.0f MB/s"))
	})
}

func fig78(p experiments.Preset, maxProcs int) {
	timed("fig7+8", func() {
		n := 512
		if n > maxProcs {
			n = maxProcs
		}
		groups := groupsUpTo(n, 1)
		points := p.TileGroupSweep(n, groups)
		if c.JSON {
			cli.EmitJSON("fig7+8-tile-groups", points)
			return
		}
		t := stats.NewTable("groups", "write", "read", "sync(s)", "sync-share")
		for _, pt := range points {
			t.AddRow(pt.Groups, stats.MBps(pt.WriteBW), stats.MBps(pt.ReadBW),
				pt.Sync, fmt.Sprintf("%.0f%%", pt.SyncShare*100))
		}
		fmt.Printf("Figure 7+8 — MPI-Tile-IO vs subgroup count (%d procs)\n", n)
		fmt.Println("paper: best at 64 groups (+210% write, +180% read); drops when over-partitioned;")
		fmt.Println("       sync cost falls with groups (Fig 8)")
		fmt.Println(t)
		var bars []viz.Bar
		for _, pt := range points {
			bars = append(bars, viz.Bar{Label: fmt.Sprintf("%d groups", pt.Groups), Value: pt.WriteBW / 1e6})
		}
		fmt.Println(viz.BarChart(bars, 46, "%.0f MB/s write"))
	})
}

func fig9(p experiments.Preset, maxProcs int) {
	timed("fig9", func() {
		procs := capped([]int{64, 128, 256, 512, 1024}, maxProcs)
		points := p.TileScalability(procs, func(n int) []int {
			var gs []int
			for _, g := range []int{8, 16, 32, 64, 128} {
				if g*4 <= n {
					gs = append(gs, g)
				}
			}
			return gs
		})
		if c.JSON {
			cli.EmitJSON("fig9-tile-scalability", points)
			return
		}
		t := stats.NewTable("procs", "Cray(base)", "ParColl(best)", "best-groups", "speedup")
		for _, pt := range points {
			t.AddRow(pt.Procs, stats.MBps(pt.BaselineBW), stats.MBps(pt.ParCollBW),
				pt.BestGroups, fmt.Sprintf("%.1fx", pt.ParCollBW/pt.BaselineBW))
		}
		fmt.Println("Figure 9 — MPI-Tile-IO write scalability")
		fmt.Println("paper: ParColl 11.4 GB/s vs 2.7 GB/s at 1024 procs (416%); gap widens with procs")
		fmt.Println(t)
		var xs, base, pc []float64
		for _, pt := range points {
			xs = append(xs, float64(pt.Procs))
			base = append(base, pt.BaselineBW/1e6)
			pc = append(pc, pt.ParCollBW/1e6)
		}
		fmt.Println(viz.TrendChart([]viz.Series{
			{Name: "baseline MB/s", X: xs, Y: base, Marker: 'c'},
			{Name: "ParColl MB/s", X: xs, Y: pc, Marker: 'p'},
		}, 10))
	})
}

func fig10(p experiments.Preset, maxProcs int) {
	timed("fig10", func() {
		procs := capped([]int{16, 64, 144, 256, 324, 576}, maxProcs)
		// BT-IO needs square process counts whose root divides N.
		var ok []int
		for _, n := range procs {
			k := 1
			for k*k < n {
				k++
			}
			if k*k == n && p.BT.N%int64(k) == 0 {
				ok = append(ok, n)
			}
		}
		points := p.BTIOScale(ok, func(n int) []int {
			var gs []int
			for _, g := range []int{4, 8, 16, 32, 64} {
				if g*4 <= n {
					gs = append(gs, g)
				}
			}
			return gs
		})
		if c.JSON {
			cli.EmitJSON("fig10-btio", points)
			return
		}
		t := stats.NewTable("procs", "Cray(base)", "ParColl(best)", "best-groups", "speedup")
		for _, pt := range points {
			t.AddRow(pt.Procs, stats.MBps(pt.BaselineBW), stats.MBps(pt.ParCollBW),
				pt.BestGroups, fmt.Sprintf("%.1fx", pt.ParCollBW/pt.BaselineBW))
		}
		fmt.Println("Figure 10 — NAS BT-IO full mode (intermediate file views)")
		fmt.Println("paper: ParColl wins at every count; best absolute I/O at 576 procs")
		fmt.Println(t)
		var xs, base, pc []float64
		for _, pt := range points {
			xs = append(xs, float64(pt.Procs))
			base = append(base, pt.BaselineBW/1e6)
			pc = append(pc, pt.ParCollBW/1e6)
		}
		fmt.Println(viz.TrendChart([]viz.Series{
			{Name: "baseline MB/s", X: xs, Y: base, Marker: 'c'},
			{Name: "ParColl MB/s", X: xs, Y: pc, Marker: 'p'},
		}, 10))
	})
}

func fig11(p experiments.Preset, maxProcs int) {
	timed("fig11", func() {
		n := 1024
		if n > maxProcs {
			n = maxProcs
		}
		points := p.FlashSeries(n, 64, 64)
		if c.JSON {
			cli.EmitJSON("fig11-flash", points)
			return
		}
		t := stats.NewTable("series", "bandwidth")
		for _, pt := range points {
			t.AddRow(pt.Label, stats.MBps(pt.BW))
		}
		fmt.Printf("Figure 11 — Flash I/O checkpoint (%d procs)\n", n)
		fmt.Println("paper: ParColl-64 +38.5% over Cray default; w/o collective I/O ~60 MB/s")
		fmt.Println(t)
		var bars []viz.Bar
		for _, pt := range points {
			bars = append(bars, viz.Bar{Label: pt.Label, Value: pt.BW / 1e6})
		}
		fmt.Println(viz.BarChart(bars, 46, "%.0f MB/s"))
	})
}
