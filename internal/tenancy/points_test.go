package tenancy

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// atProcs runs fn with GOMAXPROCS set to procs.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestSweepHostIndependent: Sweep runs its policies, and RunWithBaseline its
// shared run and isolated baselines, as concurrent points; the reports must
// not depend on how many run at once.
func TestSweepHostIndependent(t *testing.T) {
	var serial, wide []Report
	var errSerial, errWide error
	atProcs(1, func() { serial, errSerial = Sweep(experiments.BenchPreset(), MixedTrace(4), nil) })
	atProcs(4, func() { wide, errWide = Sweep(experiments.BenchPreset(), MixedTrace(4), nil) })
	if errSerial != nil || errWide != nil {
		t.Fatal(errSerial, errWide)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("Sweep differs between GOMAXPROCS 1 and 4:\n%+v\n%+v", serial, wide)
	}
}

// TestLowestIndexErrorWins: when several points fail, the caller gets the
// error a serial loop would have stopped at, with its message unchanged.
func TestLowestIndexErrorWins(t *testing.T) {
	p := experiments.BenchPreset()
	badPolicy := MixedTrace(4)
	badPolicy.Policy = "bogus-a"
	_, want := Run(p, badPolicy)
	badScenario := MixedTrace(4)
	badScenario.Scenario = "no-such-scenario"
	_, wantScenario := Run(p, badScenario)
	dupNames := MixedTrace(4)
	dupNames.Jobs[1].Name = dupNames.Jobs[0].Name
	_, wantDup := Run(p, dupNames)
	if want == nil || wantScenario == nil || wantDup == nil {
		t.Fatal("bad traces ran")
	}
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			if _, err := Sweep(p, MixedTrace(4), []string{"fifo", "bogus-a", "bogus-b"}); err == nil || err.Error() != want.Error() {
				t.Errorf("GOMAXPROCS=%d: Sweep error %v, want %v", procs, err, want)
			}
			// fifo fails at run time before the sweep reaches bogus-a.
			if _, err := Sweep(p, badScenario, []string{"fifo", "bogus-a"}); err == nil || err.Error() != wantScenario.Error() {
				t.Errorf("GOMAXPROCS=%d: Sweep error %v, want %v", procs, err, wantScenario)
			}
			if _, err := RunWithBaseline(p, dupNames); err == nil || err.Error() != wantDup.Error() {
				t.Errorf("GOMAXPROCS=%d: RunWithBaseline error %v, want %v", procs, err, wantDup)
			}
			// Every isolated baseline of this trace succeeds; only the shared
			// run fails, and its error comes back unwrapped.
			if _, err := RunWithBaseline(p, badScenario); err == nil || err.Error() != wantScenario.Error() {
				t.Errorf("GOMAXPROCS=%d: RunWithBaseline error %v, want %v", procs, err, wantScenario)
			}
		})
	}
}
