package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/job"
)

// These are the reproduction's integration tests: each asserts that a
// paper figure's qualitative shape — who wins, what grows, where the
// turnover sits — holds in the simulation at laptop scale. Absolute
// magnitudes are checked loosely; EXPERIMENTS.md records the measured
// numbers next to the paper's.

func testPreset() Preset {
	return PaperPreset()
}

func TestFig1SyncShareGrowsWithProcs(t *testing.T) {
	p := testPreset()
	pts := p.CollectiveWall([]int{16, 64})
	if pts[0].SyncShare() >= pts[1].SyncShare() {
		t.Errorf("sync share did not grow: %d procs %.2f vs %d procs %.2f",
			pts[0].Procs, pts[0].SyncShare(), pts[1].Procs, pts[1].SyncShare())
	}
	if pts[1].SyncShare() < 0.5 {
		t.Errorf("collective wall missing: sync share at 64 procs = %.2f, want > 0.5",
			pts[1].SyncShare())
	}
}

func TestFig2SyncGrowsFasterThanExchangeAndIO(t *testing.T) {
	p := testPreset()
	pts := p.CollectiveWall([]int{16, 64})
	syncGrowth := pts[1].Breakdown.Sync / pts[0].Breakdown.Sync
	ioGrowth := pts[1].Breakdown.IO / pts[0].Breakdown.IO
	if syncGrowth <= ioGrowth {
		t.Errorf("sync growth %.2fx not faster than io growth %.2fx", syncGrowth, ioGrowth)
	}
}

func TestFig7GroupSweepShape(t *testing.T) {
	p := testPreset()
	pts := p.TileGroupSweep(64, []int{1, 4, 8, 64})
	base := pts[0]
	var best GroupPoint
	for _, pt := range pts {
		if pt.WriteBW > best.WriteBW {
			best = pt
		}
	}
	if best.Groups == 1 {
		t.Fatalf("no ParColl group count beat the baseline: %+v", pts)
	}
	if best.WriteBW < base.WriteBW*1.5 {
		t.Errorf("best ParColl %.0f MB/s < 1.5x baseline %.0f MB/s",
			best.WriteBW/1e6, base.WriteBW/1e6)
	}
	// Over-partitioning (one proc per group) must fall off the peak.
	over := pts[len(pts)-1]
	if over.Groups != 64 {
		t.Fatal("test expects the last point to be fully partitioned")
	}
	if over.WriteBW >= best.WriteBW {
		t.Errorf("over-partitioned %.0f MB/s did not drop below peak %.0f MB/s",
			over.WriteBW/1e6, best.WriteBW/1e6)
	}
}

func TestFig8SyncCostFallsWithGroups(t *testing.T) {
	p := testPreset()
	pts := p.TileGroupSweep(64, []int{1, 8})
	if pts[1].Sync >= pts[0].Sync {
		t.Errorf("ParColl-8 sync %.3fs not below baseline %.3fs", pts[1].Sync, pts[0].Sync)
	}
}

func TestFig9SpeedupGrowsWithScale(t *testing.T) {
	p := testPreset()
	pts := p.TileScalability([]int{16, 64}, func(n int) []int { return []int{n / 8} })
	sp := func(pt ScalePoint) float64 { return pt.ParCollBW / pt.BaselineBW }
	if sp(pts[1]) <= sp(pts[0]) {
		t.Errorf("speedup did not grow with procs: %.2fx at %d vs %.2fx at %d",
			sp(pts[0]), pts[0].Procs, sp(pts[1]), pts[1].Procs)
	}
	if sp(pts[1]) < 1.2 {
		t.Errorf("ParColl speedup at 64 procs only %.2fx", sp(pts[1]))
	}
}

func TestFig10BTIOParCollWins(t *testing.T) {
	p := testPreset()
	pts := p.BTIOScale([]int{16}, func(int) []int { return []int{4} })
	if pts[0].ParCollBW <= pts[0].BaselineBW {
		t.Errorf("BT-IO ParColl %.0f MB/s did not beat baseline %.0f MB/s",
			pts[0].ParCollBW/1e6, pts[0].BaselineBW/1e6)
	}
}

func TestFig11FlashShape(t *testing.T) {
	p := testPreset()
	pts := p.FlashSeries(128, 16, 16)
	byLabel := map[string]float64{}
	for _, pt := range pts {
		byLabel[pt.Label] = pt.BW
	}
	// The paper's independent-write collapse (~60 MB/s at 1024 procs) grows
	// with scale; at 128 procs we require the ordering and a clear gap.
	if byLabel["Cray w/o Coll"] >= byLabel["Cray (default aggs)"]*0.75 {
		t.Errorf("independent writes (%.0f MB/s) should be well below collective (%.0f MB/s)",
			byLabel["Cray w/o Coll"]/1e6, byLabel["Cray (default aggs)"]/1e6)
	}
	if byLabel["ParColl (default aggs)"] < byLabel["Cray (default aggs)"]*0.95 {
		t.Errorf("ParColl (%.0f MB/s) fell more than 5%% below baseline (%.0f MB/s)",
			byLabel["ParColl (default aggs)"]/1e6, byLabel["Cray (default aggs)"]/1e6)
	}
	if byLabel["ParColl (16 aggs)"] <= byLabel["Cray (16 aggs)"] {
		t.Errorf("ParColl with hinted aggregators (%.0f MB/s) did not beat baseline (%.0f MB/s)",
			byLabel["ParColl (16 aggs)"]/1e6, byLabel["Cray (16 aggs)"]/1e6)
	}
}

func TestVerifyAllWorkloads(t *testing.T) {
	p := testPreset()
	for _, c := range []struct {
		name string
		spec job.Spec
	}{
		{"ior-baseline", job.Spec{Workload: job.WorkloadIOR, Procs: 8}},
		{"ior-parcoll", job.Spec{Workload: job.WorkloadIOR, Procs: 8, Groups: 4}},
		{"tile-baseline", job.Spec{Workload: job.WorkloadTileIO, Procs: 16}},
		{"tile-parcoll", job.Spec{Workload: job.WorkloadTileIO, Procs: 16, Groups: 4}},
		{"tile-overpart", job.Spec{Workload: job.WorkloadTileIO, Procs: 16, Groups: 16}},
		{"bt-baseline", job.Spec{Workload: job.WorkloadBTIO, Procs: 16}},
		{"bt-parcoll", job.Spec{Workload: job.WorkloadBTIO, Procs: 16, Groups: 4}},
		{"flash-baseline", job.Spec{Workload: job.WorkloadFlashIO, Procs: 8}},
		{"flash-parcoll", job.Spec{Workload: job.WorkloadFlashIO, Procs: 8, Groups: 4}},
		{"flash-hints", job.Spec{Workload: job.WorkloadFlashIO, Procs: 8, Groups: 2, Hints: job.Hints{CBNodes: 2}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := Verify(p, c.spec); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestVerifyUnderEveryScenario: Verify runs the preset's whole fault plan —
// the storage and run-state halves it arms and the engine half that
// crashes, stalls and drops — and every paper workload still reads back
// byte-exact with a clean ledger audit, partitioned or not. One pair is a
// known defect, pinned so that its fix has to flip it: at the paper's IOR
// geometry the aggregators' first-round writes skew their arrival by more
// than the 250 ms watchdog, the members falsely suspect a live aggregator
// after the real crash, and the run deadlocks (ROADMAP item 4e).
func TestVerifyUnderEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every catalog scenario on four workloads")
	}
	type point struct {
		scenario, workload string
		groups             int
	}
	var pts []point
	for _, name := range fault.Names() {
		for _, wl := range []string{job.WorkloadTileIO, job.WorkloadIOR, job.WorkloadBTIO, job.WorkloadFlashIO} {
			pts = append(pts, point{name, wl, 1}, point{name, wl, 4})
		}
	}
	errs := make([]error, len(pts))
	deadlocked := make([]bool, len(pts))
	ForEachPoint(len(pts), 16, func(i int) {
		defer func() {
			if e := recover(); e != nil {
				deadlocked[i] = strings.HasPrefix(fmt.Sprint(e), "sim: deadlock")
				errs[i] = fmt.Errorf("panic: %.60v", fmt.Sprint(e))
			}
		}()
		p := testPreset()
		p.Fault, _ = fault.Scenario(pts[i].scenario)
		errs[i] = Verify(p, job.Spec{Workload: pts[i].workload, Procs: 16, Groups: pts[i].groups})
	})
	for i, pt := range pts {
		known := pt.scenario == fault.OneAggCrash && pt.workload == job.WorkloadIOR
		switch {
		case known && !deadlocked[i]:
			t.Errorf("%+v: the known watchdog deadlock did not happen (%v); fixed? flip this case", pt, errs[i])
		case !known && errs[i] != nil:
			t.Errorf("%+v: %v", pt, errs[i])
		}
	}
}

func TestPresetsAreSane(t *testing.T) {
	for _, p := range []Preset{PaperPreset(), BenchPreset()} {
		if p.Tile.TileBytes() <= 0 || p.IORBlock <= 0 || p.BT.N <= 0 || p.Flash.NVars <= 0 {
			t.Errorf("preset %s has zero-sized workloads", p.Name)
		}
		if p.TileScale < 1 || p.IORScale < 1 || p.BTScale < 1 || p.FlashScale < 1 {
			t.Errorf("preset %s has sub-unity scales", p.Name)
		}
	}
}

func TestEnvForAppliesScale(t *testing.T) {
	p := PaperPreset()
	env := EnvFor(p, 128, core.Options{})
	if got := env.FS.Params().CostScale; got != 128 {
		t.Errorf("CostScale = %g want 128", got)
	}
	if env.Stripe.Size != int64(4<<20)/128 {
		t.Errorf("stripe size %d not scaled", env.Stripe.Size)
	}
}
