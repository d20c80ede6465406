// Benchmarks regenerating every table and figure of the paper's evaluation
// at bench scale (the full-scale tables come from cmd/paperrepro). Each
// benchmark reports the simulated metrics that the corresponding paper
// figure plots — virtual-time bandwidth (MBps), synchronization share, and
// so on — alongside the usual wall-clock ns/op of running the simulation.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/workload"
)

// fig1Procs is the Fig1 process-count sweep. The 128/256 points exercise
// the simulator well past the paper's bench scale, which is what the
// regression harness (TestEmitBenchJSON, `make bench`) tracks over time.
var fig1Procs = []int{16, 32, 64, 128, 256}

// BenchmarkFig1CollectiveWall measures the baseline protocol's
// synchronization share as process counts grow (paper Figure 1: 72% sync
// at 512 procs).
func BenchmarkFig1CollectiveWall(b *testing.B) {
	p := experiments.BenchPreset()
	for _, procs := range fig1Procs {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				pts := p.CollectiveWall([]int{procs})
				share = pts[0].SyncShare()
			}
			b.ReportMetric(share*100, "sync%")
		})
	}
}

// BenchmarkFig2Breakdown reports the absolute time split (paper Figure 2).
func BenchmarkFig2Breakdown(b *testing.B) {
	p := experiments.BenchPreset()
	var bd mpiio.Breakdown
	for i := 0; i < b.N; i++ {
		pts := p.CollectiveWall([]int{64})
		bd = pts[0].Breakdown
	}
	b.ReportMetric(bd.Sync*1e3, "sync-ms")
	b.ReportMetric(bd.Exchange*1e3, "exch-ms")
	b.ReportMetric(bd.IO*1e3, "io-ms")
}

// BenchmarkFig6IOR measures IOR shared-file collective writes, baseline vs
// ParColl (paper Figure 6: up to 12.8x at 512 procs).
func BenchmarkFig6IOR(b *testing.B) {
	p := experiments.BenchPreset()
	for _, groups := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				pts := p.IORGroups([]int{64}, func(int) []int { return []int{groups} })
				bw = pts[0].BW
			}
			b.ReportMetric(bw/1e6, "MBps")
		})
	}
}

// BenchmarkFig7TileIOGroups sweeps subgroup counts for tile-IO write+read
// (paper Figure 7: best at 64 groups, drop when over-partitioned).
func BenchmarkFig7TileIOGroups(b *testing.B) {
	p := experiments.BenchPreset()
	for _, groups := range []int{1, 2, 8, 64} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			var pt experiments.GroupPoint
			for i := 0; i < b.N; i++ {
				pts := p.TileGroupSweep(64, []int{groups})
				pt = pts[0]
			}
			b.ReportMetric(pt.WriteBW/1e6, "writeMBps")
			b.ReportMetric(pt.ReadBW/1e6, "readMBps")
		})
	}
}

// BenchmarkFig8SyncReduction reports synchronization seconds against
// subgroup count (paper Figure 8).
func BenchmarkFig8SyncReduction(b *testing.B) {
	p := experiments.BenchPreset()
	for _, groups := range []int{1, 8} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			var sync float64
			for i := 0; i < b.N; i++ {
				pts := p.TileGroupSweep(64, []int{groups})
				sync = pts[0].Sync
			}
			b.ReportMetric(sync*1e3, "sync-ms")
		})
	}
}

// BenchmarkFig9TileIOScalability compares baseline and best-ParColl write
// bandwidth across process counts (paper Figure 9: 416% at 1024 procs).
func BenchmarkFig9TileIOScalability(b *testing.B) {
	p := experiments.BenchPreset()
	for _, procs := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var pt experiments.ScalePoint
			for i := 0; i < b.N; i++ {
				pts := p.TileScalability([]int{procs}, func(n int) []int {
					return []int{n / 8, n / 4}
				})
				pt = pts[0]
			}
			b.ReportMetric(pt.BaselineBW/1e6, "baseMBps")
			b.ReportMetric(pt.ParCollBW/1e6, "parcollMBps")
		})
	}
}

// BenchmarkFig10BTIO runs BT-IO full mode, which requires intermediate
// file views (paper Figure 10).
func BenchmarkFig10BTIO(b *testing.B) {
	p := experiments.BenchPreset()
	var pt experiments.BTPoint
	for i := 0; i < b.N; i++ {
		pts := p.BTIOScale([]int{16}, func(int) []int { return []int{4} })
		pt = pts[0]
	}
	b.ReportMetric(pt.BaselineBW/1e6, "baseMBps")
	b.ReportMetric(pt.ParCollBW/1e6, "parcollMBps")
}

// BenchmarkFig11FlashIO runs the Flash checkpoint series (paper Figure 11:
// ParColl-64 +38.5%; no-collective ~60 MB/s).
func BenchmarkFig11FlashIO(b *testing.B) {
	p := experiments.BenchPreset()
	var pts []experiments.FlashPoint
	for i := 0; i < b.N; i++ {
		pts = p.FlashSeries(32, 8, 8)
	}
	for _, pt := range pts {
		switch pt.Label {
		case "Cray (default aggs)":
			b.ReportMetric(pt.BW/1e6, "crayMBps")
		case "ParColl (default aggs)":
			b.ReportMetric(pt.BW/1e6, "parcollMBps")
		case "Cray w/o Coll":
			b.ReportMetric(pt.BW/1e6, "nocollMBps")
		}
	}
}

// --- Ablations of the design choices DESIGN.md calls out ---

// BenchmarkAblationGroupSize exposes the synchronization-vs-aggregation
// trade-off directly: tiny groups lose aggregation, huge groups pay the
// collective wall (paper Section 4's central tension).
func BenchmarkAblationGroupSize(b *testing.B) {
	p := experiments.BenchPreset()
	for _, groups := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				pts := p.TileGroupSweep(64, []int{groups})
				bw = pts[0].WriteBW
			}
			b.ReportMetric(bw/1e6, "MBps")
		})
	}
}

// BenchmarkAblationAggregatorPlacement compares the paper's distribution
// algorithm against naive per-group selection. Under cyclic rank-to-node
// mapping (the paper's Figure 5 case) a node's PEs land in different
// subgroups, so naive selection makes one node aggregate for two groups —
// the constraint-(b) violation the distribution algorithm exists to avoid.
func BenchmarkAblationAggregatorPlacement(b *testing.B) {
	p := experiments.BenchPreset()
	p.Cluster.Mapping = cluster.Cyclic
	run := func(b *testing.B, naive bool) float64 {
		opts := core.Options{
			NumGroups:        8,
			NaiveAggregators: naive,
			Hints:            mpiio.Hints{CBNodes: 8},
		}
		var bw float64
		for i := 0; i < b.N; i++ {
			env := experiments.EnvFor(p, p.TileScale, opts)
			mpi.Run(64, p.Cluster, p.Seed, func(r *mpi.Rank) {
				res := p.Tile.Write(r, env, "tile")
				if r.WorldRank() == 0 {
					bw = res.Bandwidth()
				}
			})
		}
		return bw
	}
	b.Run("distributed", func(b *testing.B) {
		b.ReportMetric(run(b, false)/1e6, "MBps")
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportMetric(run(b, true)/1e6, "MBps")
	})
}

// BenchmarkAblationIntermediateView runs BT-IO's scattered pattern
// (Section 4.1's Figure 4(c)) in the three intermediate-view
// configurations: disabled (falls back to one global group),
// strict-physical translation (on-disk format preserved, fragmented
// aggregator writes), and materialized (dense writes; the Figure 10
// configuration).
func BenchmarkAblationIntermediateView(b *testing.B) {
	p := experiments.BenchPreset()
	run := func(b *testing.B, opts core.Options) float64 {
		opts.NumGroups = 4
		var bw float64
		for i := 0; i < b.N; i++ {
			env := experiments.EnvFor(p, p.BTScale, opts)
			mpi.Run(16, p.Cluster, p.Seed, func(r *mpi.Rank) {
				res := p.BT.Write(r, env, "bt")
				if r.WorldRank() == 0 {
					bw = res.Bandwidth()
				}
			})
		}
		return bw
	}
	b.Run("disabled", func(b *testing.B) {
		b.ReportMetric(run(b, core.Options{DisableIntermediate: true})/1e6, "MBps")
	})
	b.Run("strict-physical", func(b *testing.B) {
		b.ReportMetric(run(b, core.Options{})/1e6, "MBps")
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportMetric(run(b, core.Options{MaterializeIntermediate: true})/1e6, "MBps")
	})
}

// BenchmarkAblationAlltoallAlgorithm swaps the request-dissemination
// alltoallv between the sparse-direct and pairwise algorithms, showing the
// paper's point that replacing collectives with point-to-point rounds does
// not remove the synchronization.
func BenchmarkAblationAlltoallAlgorithm(b *testing.B) {
	p := experiments.BenchPreset()
	run := func(b *testing.B, algo mpi.AlltoallvAlgo) float64 {
		opts := core.Options{Hints: mpiio.Hints{AlltoallvAlgo: algo}}
		var sync float64
		for i := 0; i < b.N; i++ {
			env := experiments.EnvFor(p, p.TileScale, opts)
			mpi.Run(64, p.Cluster, p.Seed, func(r *mpi.Rank) {
				res := p.Tile.Write(r, env, "tile")
				bd := workload.MeanBreakdown(mpi.WorldComm(r), res.Breakdown)
				if r.WorldRank() == 0 {
					sync = bd.Sync
				}
			})
		}
		return sync
	}
	b.Run("bruck-direct", func(b *testing.B) {
		b.ReportMetric(run(b, mpi.AlltoallvDirect)*1e3, "sync-ms")
	})
	b.Run("pairwise", func(b *testing.B) {
		b.ReportMetric(run(b, mpi.AlltoallvPairwise)*1e3, "sync-ms")
	})
}
