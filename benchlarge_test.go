// The large-scale benchmark tier: TestEmitBenchLargeJSON pushes the Fig1
// collective-wall run to 1024 and 4096 procs (16384 as an opt-in stretch)
// and writes the same machine-readable report as the small tier
// (BENCH_6.json; `make bench-large` drives it).
package repro_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/perf"
	"repro/internal/sim"
)

// benchLargeProcs is the large-tier Fig1 sweep. The small tier
// (benchjson_test.go) stops at 256; these points only run under
// `make bench-large` so plain `go test` stays fast.
var benchLargeProcs = []int{1024, 4096}

// TestEmitBenchLargeJSON writes the large-tier report to the path named by
// the BENCH_LARGE_JSON environment variable (skipped when unset). Set
// BENCH_LARGE_STRETCH=1 to add the 16384-proc stretch point.
func TestEmitBenchLargeJSON(t *testing.T) {
	path := os.Getenv("BENCH_LARGE_JSON")
	if path == "" {
		t.Skip("set BENCH_LARGE_JSON=<path> to emit the large-tier benchmark report")
	}
	p := experiments.BenchPreset()
	rep := perf.NewBenchReport()
	procs := benchLargeProcs
	if os.Getenv("BENCH_LARGE_STRETCH") != "" {
		procs = append(procs, 16384)
	}
	for _, n := range procs {
		var pt experiments.WallPoint
		var st sim.Stats
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt, st = p.CollectiveWallStats(n)
			}
		})
		nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
		point := perf.BenchPoint{
			Name:        fmt.Sprintf("Fig1CollectiveWall/procs=%d", n),
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
		t.Logf("%s: %.0f ns/op, %.0f allocs/op, %.2g events/sec, sync=%.1f%%",
			point.Name, point.NsPerOp, point.AllocsPerOp,
			point.Metrics["sim_events_per_sec"], 100*point.Metrics["sync_share"])
	}
	if err := rep.Write(path); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
}
