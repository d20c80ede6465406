// Determinism regression tests. The simulator's virtual-time results must
// be a pure function of (workload, config, seed): the scheduler breaks ties
// by (resume time, proc id), wildcard receives resolve by global deposit
// sequence, and no code path consults wall time or map iteration order for
// anything that feeds the clock. These tests pin that property two ways —
// run-to-run identity within a build, and bit-exact golden values that a
// performance refactor must not move.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// TestFig1RunTwiceIdentical runs the Figure 1 experiment twice with the
// same seed and asserts bit-identical virtual-time results.
func TestFig1RunTwiceIdentical(t *testing.T) {
	p := experiments.BenchPreset()
	procs := []int{16, 64}
	first := p.CollectiveWall(procs)
	second := p.CollectiveWall(procs)
	for i := range first {
		a, b := first[i], second[i]
		if a.Breakdown != b.Breakdown {
			t.Errorf("procs=%d: breakdown differs between runs:\n  first:  %+v\n  second: %+v",
				a.Procs, a.Breakdown, b.Breakdown)
		}
		if fa, fb := a.SyncShare(), b.SyncShare(); fa != fb {
			t.Errorf("procs=%d: sync share differs: %x vs %x", a.Procs, fa, fb)
		}
	}
}

// goldenMetrics computes the pinned figure metrics under one preset; the
// golden test and the hierarchical knobs-off test both compare its output
// against goldenWant.
func goldenMetrics(p experiments.Preset) map[string]string {
	got := make(map[string]string)
	for _, n := range []int{16, 32, 64} {
		pts := p.CollectiveWall([]int{n})
		bd := pts[0].Breakdown
		got[fmt.Sprintf("fig1/procs=%d", n)] = fmt.Sprintf(
			"sync=%x exch=%x io=%x other=%x share=%x",
			bd.Sync, bd.Exchange, bd.IO, bd.Other, pts[0].SyncShare())
	}
	for _, g := range p.TileGroupSweep(64, []int{1, 8}) {
		got[fmt.Sprintf("fig7/groups=%d", g.Groups)] = fmt.Sprintf(
			"writeBW=%x readBW=%x sync=%x", g.WriteBW, g.ReadBW, g.Sync)
	}
	ior := p.IORGroups([]int{64}, func(int) []int { return []int{8} })
	got["fig6/groups=8"] = fmt.Sprintf("BW=%x", ior[0].BW)
	return got
}

// goldenWant are the bit-exact hex-float golden values (captured from the
// original implementation).
var goldenWant = map[string]string{
	"fig1/procs=16": "sync=0x1.45cec2a04607cp-05 exch=0x1.9f291cfc318a2p-10 io=0x1.9862d41837c06p-05 other=0x1.2741be9e3558ap-06 share=0x1.74da491cba4cfp-02",
	"fig1/procs=32": "sync=0x1.509a2c87cceeep-05 exch=0x1.841fb4d12d7fbp-09 io=0x1.9c2172baaaefp-05 other=0x1.4d30eda4e7a59p-06 share=0x1.6ed7d409ded58p-02",
	"fig1/procs=64": "sync=0x1.63e9487928e0ap-05 exch=0x1.841fb4d12d7f5p-09 io=0x1.a68c260b0a957p-05 other=0x1.5fa469d194fa5p-06 share=0x1.74725da5c14dcp-02",
	"fig7/groups=1": "writeBW=0x1.923130a372c17p+31 readBW=0x1.d81cae2666af7p+30 sync=0x1.63e9487928e0ap-05",
	"fig7/groups=8": "writeBW=0x1.9e2cb7465c2a8p+31 readBW=0x1.4145bdf0281b8p+31 sync=0x1.41d74f087c9f3p-05",
	"fig6/groups=8": "BW=0x1.63122dc8f9919p+30",
}

// TestGoldenVirtualTimeMetrics pins the simulated metrics to bit-exact
// hex-float golden values (captured from the original implementation).
// A change here means the simulation's virtual-time behaviour moved —
// deliberate model changes must update the goldens and say why; pure
// performance work must leave them untouched.
func TestGoldenVirtualTimeMetrics(t *testing.T) {
	got := goldenMetrics(experiments.BenchPreset())
	for k, w := range goldenWant {
		if got[k] != w {
			t.Errorf("%s:\n  got:  %s\n  want: %s", k, got[k], w)
		}
	}
}
