package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/job"
)

// atProcs runs fn with GOMAXPROCS set to procs.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// recoverValue returns what fn panicked with, or nil.
func recoverValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestForEachPointRunsEveryPointOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			atProcs(procs, func() {
				hits := make([]int32, n)
				ForEachPoint(n, 1, func(i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Errorf("GOMAXPROCS=%d n=%d: point %d ran %d times", procs, n, i, h)
					}
				}
			})
		}
	}
}

// TestForEachPointBound checks that nested calls share one process-wide
// bound of GOMAXPROCS running points and of maxHelperRanks simulated ranks
// beside the caller's point, and that a nested call finding every slot
// taken runs inline instead of deadlocking.
func TestForEachPointBound(t *testing.T) {
	cases := []struct{ procs, ranks, want int }{
		{1, 1, 1}, {2, 1, 2}, {4, 1, 4},
		{8, 512, 3}, {8, 1024, 2}, {8, 2048, 1},
	}
	for _, c := range cases {
		var running, peak atomic.Int32
		leaf := func(int) {
			now := running.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
		}
		atProcs(c.procs, func() {
			ForEachPoint(6, c.ranks, func(int) { ForEachPoint(5, c.ranks, leaf) })
		})
		if got := peak.Load(); got < 1 || int(got) > c.want {
			t.Errorf("GOMAXPROCS=%d, %d ranks: %d points ran at once, want at most %d", c.procs, c.ranks, got, c.want)
		}
		if h := helpers.Load(); h != 0 {
			t.Errorf("GOMAXPROCS=%d: %d helpers holding %d ranks still counted", c.procs, h>>32, h&(1<<32-1))
		}
	}
}

// TestForEachPointPanicLowestIndex: with points 1 and 2 panicking, the
// caller sees point 1's value unchanged, whatever the core count, and the
// goroutine count returns to where it was.
func TestForEachPointPanicLowestIndex(t *testing.T) {
	for _, procs := range []int{1, 4} {
		before := runtime.NumGoroutine()
		var started atomic.Int32
		var v any
		atProcs(procs, func() {
			v = recoverValue(func() {
				ForEachPoint(8, 1, func(i int) {
					if i == 1 || i == 2 {
						// With several cores, hold until both failing points
						// have started, so both panics are in flight.
						started.Add(1)
						for t0 := time.Now(); started.Load() < 2 && time.Since(t0) < 100*time.Millisecond; {
							runtime.Gosched()
						}
						panic(fmt.Errorf("point %d", i))
					}
				})
			})
		})
		if err, ok := v.(error); !ok || err.Error() != "point 1" {
			t.Errorf("GOMAXPROCS=%d: recovered %#v, want the error \"point 1\"", procs, v)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		// Helpers of an earlier call may still be exiting when before is
		// read, so only growth is a leak.
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("GOMAXPROCS=%d: %d goroutines before, %d after", procs, before, after)
		}
	}
}

// TestLegFailuresKeepTheirText: a leg's panic reaches the caller as the
// same value a serial sweep raises — the verification mismatch of
// BackendSweep with every staging node lost before the write lands, and a
// dead list-I/O server under CheckpointBurst.
func TestLegFailuresKeepTheirText(t *testing.T) {
	cases := []struct {
		name, want string
		run        func(p Preset)
	}{
		{"bb-lost", "backend bb: rank 0 data mismatch at 0", func(p Preset) {
			p.Fault = &fault.Plan{Name: "bb-lost", BBFails: []fault.BBFail{{Node: -1, At: 1e-9}}}
			p.BackendSweep(16, []string{"lustre", "bb", "listio", "bb"})
		}},
		{"dead-server", `pvfs: WritevAt on "ckpt": pvfs: server 0 transient failure after 6 attempt(s)`, func(p Preset) {
			p.Fault = &fault.Plan{Name: "dead-server", ServerFails: []fault.OSTFail{{OST: -1, Prob: 1}}}
			p.CheckpointBurst(16, 1, job.BackendNames())
		}},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 4} {
			p := PaperPreset()
			p.IORBlock, p.IORTransfer = 1<<10, 64
			var v any
			atProcs(procs, func() { v = recoverValue(func() { c.run(p) }) })
			if s, ok := v.(string); !ok || !strings.HasPrefix(s, c.want) {
				t.Errorf("%s, GOMAXPROCS=%d: recovered %.200q, want a string starting %q", c.name, procs, fmt.Sprint(v), c.want)
			}
		}
	}
}

// TestRunnersHostIndependent runs every runner whose points go through
// ForEachPoint at one core and at four and requires identical results:
// points share no state, each writes only its own slot, and accumulations
// (StragglerSweep's replicate means) and dependencies (CheckpointBurst's
// lustre reference) keep their serial order.
func TestRunnersHostIndependent(t *testing.T) {
	p := PaperPreset()
	p.IORBlock = 16 << 10
	straggler, _ := fault.Scenario(fault.OneStraggler)
	four := func(int) []int { return []int{4} }
	runners := map[string]func() any{
		"CollectiveWall":  func() any { return p.CollectiveWall([]int{16, 32}) },
		"TileGroupSweep":  func() any { return p.TileGroupSweep(16, []int{1, 4, 16}) },
		"IORGroups":       func() any { return p.IORGroups([]int{16, 32}, func(n int) []int { return []int{1, n / 4} }) },
		"TileScalability": func() any { return p.TileScalability([]int{16, 32}, func(n int) []int { return []int{2, n / 4} }) },
		"BTIOScale":       func() any { return p.BTIOScale([]int{16}, four) },
		"FlashSeries":     func() any { return p.FlashSeries(16, 4, 4) },
		"OverlapSweep":    func() any { return p.OverlapSweep(16, 4, 2, []float64{0, 1}, straggler) },
		"ScenarioSuite":   func() any { return p.ScenarioSuite(16, 4) },
		"RecoverySuite":   func() any { return p.RecoverySuite(16, 4) },
		"IntraNodeSweep":  func() any { return p.IntraNodeSweep(16, 2, []int{2, 4}) },
		"StragglerSweep":  func() any { return p.StragglerSweep(16, 4, []float64{0, 1, 2}) },
		"BackendSweep":    func() any { return p.BackendSweep(16, job.BackendNames()) },
		"CheckpointBurst": func() any { return p.CheckpointBurst(16, 1, job.BackendNames()) },
	}
	for name, run := range runners {
		var serial, wide any
		atProcs(1, func() { serial = run() })
		atProcs(4, func() { wide = run() })
		if !reflect.DeepEqual(serial, wide) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4:\n%+v\n%+v", name, serial, wide)
		}
	}
}

// TestCheckpointBurstReferenceIsHealthy: the burst's compute budget comes
// from a healthy reference run, so a plan that only slows the OSTs — which
// no list-I/O request reaches — leaves the listio point exactly as the
// healthy sweep has it.
func TestCheckpointBurstReferenceIsHealthy(t *testing.T) {
	p := BenchPreset()
	healthy := p.CheckpointBurst(16, 1, []string{"listio"})
	p.Fault = &fault.Plan{Name: "slow-osts", OSTs: []fault.OSTFault{{OST: -1, Scale: 4}}}
	slowOSTs := p.CheckpointBurst(16, 1, []string{"listio"})
	if !reflect.DeepEqual(slowOSTs, healthy) {
		t.Errorf("listio under slow OSTs = %+v, healthy = %+v", slowOSTs[0], healthy[0])
	}
}
