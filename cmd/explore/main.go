// Command explore is the sensitivity-analysis tool behind the paper's
// closing question — how the collective wall and ParColl's benefit move on
// machines with different networks and file systems. It sweeps one model
// parameter, runs the tile workload with the baseline protocol and with
// ParColl, and reports bandwidth plus the baseline's synchronization share
// at each point.
//
// Usage:
//
//	explore -param latency  -values 1e-6,5e-6,2e-5,1e-4
//	explore -param tailprob -values 0,0.02,0.1
//	explore -param ostbw    -values 7e7,1.4e8,5.6e8
//	explore -param osts     -values 18,72,288
package main

import (
	"flag"
	"fmt"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	param := flag.String("param", "latency", "parameter to sweep: latency, tailprob, jitter, ostbw, osts, switch")
	values := flag.String("values", "", "comma-separated values (defaults depend on param)")
	groups := flag.Int("groups", 16, "ParColl subgroup count")
	c := cli.Register(128)
	c.RegisterScenario("")
	flag.Parse()
	c.ResolveSpec("")

	base := experiments.PaperPreset()
	c.Apply(&base)
	if err := base.SetParam(*param, 0); err != nil {
		cli.Fatalf("explore: %v", err)
	}
	vals := parseValues(*param, *values)
	presets := make([]experiments.Preset, len(vals))
	for i, v := range vals {
		presets[i] = base
		presets[i].SetParam(*param, v) // the name passed the check above
	}

	type row struct {
		Param      string  `json:"param"`
		Value      float64 `json:"value"`
		BaselineBW float64 `json:"baseline_bw"`
		SyncShare  float64 `json:"sync_share"`
		ParCollBW  float64 `json:"parcoll_bw"`
		Groups     int     `json:"groups"`
	}
	var rows []row
	t := stats.NewTable(*param, "baseline", "sync-share", fmt.Sprintf("ParColl-%d", *groups), "speedup")
	var xs, speedups []float64
	// Point 2i is value i's baseline run, 2i+1 its ParColl run.
	bw, share := make([]float64, 2*len(vals)), make([]float64, 2*len(vals))
	experiments.ForEachPoint(len(bw), c.Spec.Procs, func(i int) {
		bw[i], share[i] = runTile(presets[i/2], c.Spec.Procs, []int{1, *groups}[i%2])
	})
	for i, v := range vals {
		base, pc := bw[2*i], bw[2*i+1]
		rows = append(rows, row{*param, v, base, share[2*i], pc, *groups})
		t.AddRow(fmt.Sprintf("%g", v), stats.MBps(base), fmt.Sprintf("%.0f%%", share[2*i]*100),
			stats.MBps(pc), fmt.Sprintf("%.2fx", pc/base))
		xs = append(xs, v)
		speedups = append(speedups, pc/base)
	}
	if c.JSON {
		cli.EmitJSON("sensitivity", rows)
		return
	}
	fmt.Printf("sensitivity of the collective wall to %s (%d procs, tile workload)\n\n", *param, c.Spec.Procs)
	fmt.Println(t)
	fmt.Println(viz.TrendChart([]viz.Series{
		{Name: "ParColl speedup", X: xs, Y: speedups, Marker: 'x'},
	}, 8))
}

// runTile measures tile-IO collective-write bandwidth and the mean sync
// share for one configuration.
func runTile(p experiments.Preset, nprocs, groups int) (bw, syncShare float64) {
	env := experiments.EnvFor(p, p.TileScale, core.Options{NumGroups: groups})
	mpi.RunPlan(nprocs, p.Cluster, p.Seed, p.Fault, func(r *mpi.Rank) {
		res := p.Tile.Write(r, env, "tile")
		m := workload.MeanBreakdown(mpi.WorldComm(r), res.Breakdown)
		if r.WorldRank() == 0 {
			bw = res.Bandwidth()
			if tot := m.Total(); tot > 0 {
				syncShare = m.Sync / tot
			}
		}
	})
	return bw, syncShare
}

func parseValues(param, s string) []float64 {
	if s == "" {
		defaults := map[string][]float64{
			"latency":  {1e-6, 5e-6, 2e-5, 1e-4},
			"tailprob": {0, 0.02, 0.05, 0.1},
			"jitter":   {0, 0.05, 0.1, 0.3},
			"ostbw":    {7e7, 1.4e8, 2.8e8, 5.6e8},
			"osts":     {18, 36, 72, 144},
			"switch":   {0, 1.5e-3, 5e-3},
		}
		return defaults[param]
	}
	return cli.ParseFloats("value", s)
}
