// The benchmark regression harness: TestEmitBenchJSON reruns the Figure 1
// collective-wall benchmark under testing.Benchmark and writes a
// machine-readable report (BENCH_10.json) with wall-clock cost (ns/op,
// allocs/op, bytes/op), simulator throughput (virtual events per wall
// second), and the simulated metrics themselves. `make bench` drives it;
// DESIGN.md ("Performance model of the simulator") explains how to read
// the output. Committed reports let PRs diff simulator performance the
// same way golden tests diff simulated physics.
package repro_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// TestEmitBenchJSON writes the benchmark report to the path named by the
// BENCH_JSON environment variable (skipped when unset, so plain `go test`
// stays fast).
func TestEmitBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> to emit the benchmark report")
	}
	p := experiments.BenchPreset()
	rep := perf.NewBenchReport()
	var flatAllocs float64 // Fig1CollectiveWall/procs=256, for the guard
	for _, procs := range fig1Procs {
		var pt experiments.WallPoint
		var st sim.Stats
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt, st = p.CollectiveWallStats(procs)
			}
		})
		nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
		point := perf.BenchPoint{
			Name:        fmt.Sprintf("Fig1CollectiveWall/procs=%d", procs),
			NsPerOp:     nsPerOp,
			AllocsPerOp: float64(res.AllocsPerOp()),
			BytesPerOp:  float64(res.AllocedBytesPerOp()),
			Metrics: map[string]float64{
				"sync_share":         pt.SyncShare(),
				"sim_events":         float64(st.Events()),
				"sim_events_per_sec": float64(st.Events()) / (nsPerOp / 1e9),
			},
		}
		rep.Add(point)
		if procs == 256 {
			flatAllocs = point.AllocsPerOp
		}
		t.Logf("%s: %.0f ns/op, %.0f allocs/op, %.2g events/sec, sync=%.1f%%",
			point.Name, point.NsPerOp, point.AllocsPerOp,
			point.Metrics["sim_events_per_sec"], 100*point.Metrics["sync_share"])
	}
	// Fat-node point: the same Fig1 workload on 16-PE nodes with the
	// two-level intra-node protocol on (DESIGN.md §13), so the report
	// tracks the hierarchical path's wall-clock and allocation cost
	// alongside the flat one's.
	fat := experiments.BenchPreset()
	fat.Cluster.PEsPerNode = 16
	fat.IntraNode = true
	{
		var pt experiments.WallPoint
		var st sim.Stats
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt, st = fat.CollectiveWallStats(64)
			}
		})
		nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
		point := perf.BenchPoint{
			Name:        "Fig1CollectiveWallFatNode/procs=64/pes=16/intranode",
			NsPerOp:     nsPerOp,
			AllocsPerOp: float64(res.AllocsPerOp()),
			BytesPerOp:  float64(res.AllocedBytesPerOp()),
			Metrics: map[string]float64{
				"pes_per_node":       16,
				"sync_share":         pt.SyncShare(),
				"sim_events":         float64(st.Events()),
				"sim_events_per_sec": float64(st.Events()) / (nsPerOp / 1e9),
			},
		}
		rep.Add(point)
		t.Logf("%s: %.0f ns/op, %.0f allocs/op, sync=%.1f%%",
			point.Name, point.NsPerOp, point.AllocsPerOp, 100*point.Metrics["sync_share"])
	}
	// Multi-tenant point: a 4-job 256-proc mixed trace under fair-share QoS
	// (DESIGN.md §16), so the report tracks the tenancy layer's wall-clock
	// and allocation cost alongside the single-job paths.
	{
		tr := tenancy.Trace{
			Jobs: []job.Spec{
				{Name: "tile-hog", Workload: job.WorkloadTileIO, Procs: 128, Groups: 8},
				{Name: "btio", Workload: job.WorkloadBTIO, Procs: 64, Groups: 4, Arrival: 0.002, Steps: 2},
				{Name: "ior", Workload: job.WorkloadIOR, Procs: 32, Groups: 4, Arrival: 0.004},
				{Name: "ckpt", Workload: job.WorkloadCheckpoint, Procs: 32, Groups: 4,
					Arrival: 0.006, Steps: 2, BlockBytes: 4 << 10, Interleave: 1 << 10},
			},
			Policy: "fair",
		}
		var tp tenancy.Report
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				tp, err = tenancy.Run(p, tr)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
		point := perf.BenchPoint{
			Name:        "Tenancy4JobsFair/procs=256",
			NsPerOp:     nsPerOp,
			AllocsPerOp: float64(res.AllocsPerOp()),
			BytesPerOp:  float64(res.AllocedBytesPerOp()),
			Metrics: map[string]float64{
				"jobs":         float64(len(tp.Jobs)),
				"makespan":     tp.End,
				"hog_coll_p99": tp.Jobs[0].P99,
			},
		}
		rep.Add(point)
		t.Logf("%s: %.0f ns/op, %.0f allocs/op, makespan=%.4fs",
			point.Name, point.NsPerOp, point.AllocsPerOp, tp.End)
	}
	// Healthy-path allocation guard: the flat 256-proc Fig1 point on the
	// default lustre backend must not have grown its allocs/op by more than
	// 1% over the BENCH_8.json baseline — the per-job QoS/latency plumbing
	// (JobID threading, admission hook, latency recorder field) must cost
	// nothing on the single-job path.
	if base, err := perf.ReadBenchReport("BENCH_8.json"); err == nil {
		var want float64
		for _, bp := range base.Points {
			if bp.Name == "Fig1CollectiveWall/procs=256" {
				want = bp.AllocsPerOp
			}
		}
		if want > 0 && flatAllocs > 0 {
			t.Logf("healthy-path guard: %.0f allocs/op vs BENCH_8 baseline %.0f", flatAllocs, want)
			if flatAllocs > want*1.01 {
				t.Errorf("healthy-path allocs/op regressed: %.0f > 1%% over BENCH_8 baseline %.0f", flatAllocs, want)
			}
		}
	}
	if err := rep.Write(path); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
}
