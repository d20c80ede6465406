package recovery

import (
	"math"
	"testing"
)

func TestBackoffSchedule(t *testing.T) {
	want := []float64{1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3, 3.2e-3, 5e-3, 5e-3}
	for i, w := range want {
		if got := delay(i + 1); math.Abs(got-w) > 1e-15 {
			t.Errorf("retry %d: delay = %g, want %g", i+1, got, w)
		}
	}
	if retryAttempts != 6 {
		t.Errorf("retry budget = %d attempts, want 6", retryAttempts)
	}
}

func TestBreakerTransitions(t *testing.T) {
	k := &Breaker{}
	if k.State(0) != BreakerClosed {
		t.Fatal("fresh breaker not closed")
	}
	// Three failures: still closed (threshold 4).
	k.Failure(0.1)
	k.Failure(0.2)
	k.Failure(0.3)
	if k.State(0.3) != BreakerClosed || k.HoldOff(0.3) != 0 {
		t.Fatal("breaker tripped before threshold")
	}
	// A success resets the consecutive counter.
	k.Success()
	k.Failure(0.4)
	k.Failure(0.5)
	k.Failure(0.6)
	if k.State(0.6) != BreakerClosed {
		t.Fatal("success did not reset the failure counter")
	}
	// Fourth consecutive failure trips it.
	k.Failure(0.7)
	if k.State(0.7) != BreakerOpen || k.Opens != 1 {
		t.Fatalf("breaker not open after threshold: state=%v opens=%d", k.State(0.7), k.Opens)
	}
	// While open, requests are held off until the cooldown elapses.
	if h := k.HoldOff(0.7005); math.Abs(h-1.5e-3) > 1e-12 {
		t.Fatalf("hold-off = %g, want 1.5e-3 (until openedAt+cooldown)", h)
	}
	// The held-off request is the half-open probe; its failure re-opens.
	if k.State(0.702) != BreakerHalfOpen {
		t.Fatalf("state after hold = %v, want half-open", k.State(0.702))
	}
	k.Failure(0.702)
	if k.State(0.702) != BreakerOpen || k.Opens != 2 {
		t.Fatal("failed probe did not re-open the breaker")
	}
	// After the second cooldown, a successful probe closes it for good.
	if h := k.HoldOff(0.705); h != 0 {
		t.Fatalf("post-cooldown hold-off = %g, want 0", h)
	}
	k.Success()
	if k.State(0.705) != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if k.HoldOff(0.705) != 0 {
		t.Fatal("closed breaker holds requests off")
	}
}

func TestBreakerDefaults(t *testing.T) {
	k := &Breaker{}
	for i := 0; i < breakerThreshold; i++ {
		k.Failure(0.001 * float64(i))
	}
	if breakerThreshold != 4 || k.State(0.003) != BreakerOpen {
		t.Fatal("threshold is not 4")
	}
	if breakerCooldown != 2e-3 || k.State(0.003+2e-3) != BreakerHalfOpen {
		t.Fatal("cooldown is not 2 ms")
	}
}

func TestTargetError(t *testing.T) {
	e := &TargetError{Layer: "lustre", Kind: "OST", Target: 3, Attempts: 6}
	if e.Error() != "lustre: OST 3 transient failure after 6 attempt(s)" {
		t.Fatalf("transient message = %q", e.Error())
	}
	p := &TargetError{Layer: "pvfs", Kind: "server", Target: 0, Attempts: 1}
	if p.Error() != "pvfs: server 0 transient failure after 1 attempt(s)" {
		t.Fatalf("pvfs message = %q", p.Error())
	}
}

func TestBreakerSet(t *testing.T) {
	s := NewBreakerSet()
	if s.Len() != 0 || s.Opens() != 0 {
		t.Fatal("fresh set not empty")
	}
	a := s.Get(3)
	if a != s.Get(3) {
		t.Fatal("Get is not stable per target")
	}
	if a == s.Get(7) {
		t.Fatal("distinct targets share a breaker")
	}
	for i := 0; i < 4; i++ { // default threshold
		a.Failure(0.001 * float64(i))
	}
	if a.State(0.003) != BreakerOpen || s.Opens() != 1 {
		t.Fatalf("set breaker did not trip: state=%v opens=%d", a.State(0.003), s.Opens())
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if b := s.Get(7); b.State(0.003) != BreakerClosed {
		t.Fatal("a trip on one target reached another")
	}
}

func TestStatsMerge(t *testing.T) {
	var r RetryStats
	r.Add(RetryStats{Attempts: 3, Retries: 2, Failures: 2, BackoffSecs: 0.5})
	r.Add(RetryStats{Attempts: 1, Exhausted: 1, BreakerOpens: 1, BackoffSecs: 0.25})
	if r.Attempts != 4 || r.Retries != 2 || r.Failures != 2 || r.Exhausted != 1 ||
		r.BreakerOpens != 1 || r.BackoffSecs != 0.75 {
		t.Fatalf("RetryStats.Add wrong: %+v", r)
	}
}
