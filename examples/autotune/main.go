// Autotune: the paper's future-work item — adaptive group-size selection —
// implemented as core.Options.AutoGroups. The example runs the same
// strided workload with the baseline protocol, a hand-tuned group count,
// and automatic selection, printing each configuration's close-time
// summary (the per-file report the paper's instrumentation emits).
//
// Run with: go run ./examples/autotune
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/storage"
)

func main() {
	const (
		nprocs = 64
		rows   = 64
		rowLen = 512
	)
	configs := []struct {
		label string
		opts  core.Options
	}{
		{"baseline (1 group)", core.Options{}},
		{"ParColl-4 (hand-tuned)", core.Options{NumGroups: 4}},
		{"ParColl auto", core.Options{AutoGroups: true}},
	}
	t := stats.NewTable("configuration", "groups", "mode", "commit", "sync", "io")
	for _, cfg := range configs {
		fs := lustre.NewFS(lustre.DefaultConfig())
		var elapsed float64
		var plan core.Plan
		var sync, io float64
		mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			comm := mpi.WorldComm(r)
			f := core.Open(comm, fs, "data.bin", storage.Stripe{Count: 16, Size: 64 << 10}, cfg.opts)
			me := r.WorldRank()
			// Banded strided layout: each rank owns `rows` rows of
			// `rowLen` bytes inside its band (a pattern-(b) access).
			band := int64(nprocs/8) * rowLen // 8 ranks interleave per band
			_ = band
			ft := datatype.NewVector(rows, int64(rowLen), int64(rowLen*8))
			f.SetView(datatype.View{
				Disp:     int64(me/8)*int64(rows*rowLen*8) + int64(me%8)*int64(rowLen),
				Filetype: ft,
			})
			data := make([]byte, rows*rowLen)
			for i := range data {
				data[i] = byte(me + i)
			}
			comm.Barrier()
			t0 := comm.MaxFinishTime()
			f.WriteAtAll(0, data)
			end := comm.MaxFinishTime()
			bd := f.Close()
			if me == 0 {
				elapsed = end - t0
				plan = f.LastPlan()
				sync, io = bd.Sync, bd.IO
			}
		})
		t.AddRow(cfg.label, plan.NumGroups, fmt.Sprint(plan.Mode),
			fmt.Sprintf("%.1f ms", elapsed*1e3),
			fmt.Sprintf("%.1f ms", sync*1e3),
			fmt.Sprintf("%.1f ms", io*1e3))
	}
	fmt.Println("adaptive group selection (64 ranks, banded strided writes)")
	fmt.Println()
	fmt.Println(t)
}
