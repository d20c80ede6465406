package recovery

import (
	"math"
	"math/rand"
	"testing"
)

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 1e-4, Cap: 1e-3, Factor: 2, MaxAttempts: 6}
	want := []float64{1e-4, 2e-4, 4e-4, 8e-4, 1e-3, 1e-3, 1e-3}
	for i, w := range want {
		if got := b.Delay(i+1, nil); math.Abs(got-w) > 1e-15 {
			t.Errorf("retry %d: delay = %g, want %g", i+1, got, w)
		}
	}
	if b.Exhausted(5) || !b.Exhausted(6) {
		t.Error("Exhausted boundary wrong: budget is 6 total attempts")
	}
}

func TestBackoffDefaults(t *testing.T) {
	d := Backoff{}.Defaults()
	if d.Base != 1e-4 || d.Cap != 5e-3 || d.Factor != 2 || d.MaxAttempts != 6 || d.Jitter != 0 {
		t.Fatalf("defaults = %+v", d)
	}
	// Explicit fields survive.
	k := Backoff{Base: 1, MaxAttempts: 3}.Defaults()
	if k.Base != 1 || k.MaxAttempts != 3 {
		t.Fatalf("explicit fields clobbered: %+v", k)
	}
}

// TestBackoffDeterminism: the jitter-free schedule consumes no draws (nil
// rng does not panic), and a jittered schedule is bit-identical under the
// same seed.
func TestBackoffDeterminism(t *testing.T) {
	b := Backoff{}.Defaults()
	if d1, d2 := b.Delay(3, nil), b.Delay(3, nil); d1 != d2 {
		t.Fatal("jitter-free delay is not a pure function")
	}
	j := Backoff{Jitter: 0.5}.Defaults()
	a, c := rand.New(rand.NewSource(17)), rand.New(rand.NewSource(17))
	for i := 1; i <= 20; i++ {
		da, dc := j.Delay(i, a), j.Delay(i, c)
		if da != dc {
			t.Fatalf("retry %d: jittered delays diverge under one seed: %g vs %g", i, da, dc)
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	k := &Breaker{Threshold: 3, Cooldown: 1.0}
	if k.State(0) != BreakerClosed {
		t.Fatal("fresh breaker not closed")
	}
	// Two failures: still closed (threshold 3).
	k.Failure(0.1)
	k.Failure(0.2)
	if k.State(0.2) != BreakerClosed || k.HoldOff(0.2) != 0 {
		t.Fatal("breaker tripped before threshold")
	}
	// A success resets the consecutive counter.
	k.Success()
	k.Failure(0.3)
	k.Failure(0.4)
	if k.State(0.4) != BreakerClosed {
		t.Fatal("success did not reset the failure counter")
	}
	// Third consecutive failure trips it.
	k.Failure(0.5)
	if k.State(0.5) != BreakerOpen || k.Opens != 1 {
		t.Fatalf("breaker not open after threshold: state=%v opens=%d", k.State(0.5), k.Opens)
	}
	// While open, requests are held off until the cooldown elapses.
	if h := k.HoldOff(0.7); math.Abs(h-0.8) > 1e-12 {
		t.Fatalf("hold-off = %g, want 0.8 (until openedAt+cooldown)", h)
	}
	// The held-off request is the half-open probe; its failure re-opens.
	if k.State(1.5) != BreakerHalfOpen {
		t.Fatalf("state after hold = %v, want half-open", k.State(1.5))
	}
	k.Failure(1.5)
	if k.State(1.5) != BreakerOpen || k.Opens != 2 {
		t.Fatal("failed probe did not re-open the breaker")
	}
	// After the second cooldown, a successful probe closes it for good.
	if h := k.HoldOff(2.6); h != 0 {
		t.Fatalf("post-cooldown hold-off = %g, want 0", h)
	}
	k.Success()
	if k.State(2.6) != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if k.HoldOff(2.6) != 0 {
		t.Fatal("closed breaker holds requests off")
	}
}

func TestBreakerDefaults(t *testing.T) {
	k := &Breaker{}
	for i := 0; i < 4; i++ {
		k.Failure(0.001 * float64(i))
	}
	if k.State(0.003) != BreakerOpen {
		t.Fatal("default threshold is not 4")
	}
	if k.State(0.003+2e-3) != BreakerHalfOpen {
		t.Fatal("default cooldown is not 2 ms")
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.Defaults()
	if p.Timeout != 2.5e-1 || p.MaxFailovers != 2 {
		t.Fatalf("policy defaults = %+v", p)
	}
	q := Policy{Timeout: 1, MaxFailovers: 7}.Defaults()
	if q.Timeout != 1 || q.MaxFailovers != 7 {
		t.Fatalf("explicit policy clobbered: %+v", q)
	}
}

func TestTargetError(t *testing.T) {
	e := &TargetError{Layer: "lustre", Kind: "OST", Target: 3, Attempts: 6}
	if e.Error() != "lustre: OST 3 transient failure after 6 attempt(s)" {
		t.Fatalf("transient message = %q", e.Error())
	}
	p := &TargetError{Layer: "pvfs", Kind: "server", Target: 0, Attempts: 1, Permanent: true}
	if p.Error() != "pvfs: server 0 permanent failure after 1 attempt(s)" {
		t.Fatalf("permanent message = %q", p.Error())
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
	// Configured sets hand their settings to new breakers.
	c := &BreakerSet{Threshold: 1, Cooldown: 0.5}
	k := c.Get(0)
	k.Failure(0)
	if k.State(0) != BreakerOpen {
		t.Fatal("configured threshold not applied")
	}
	if k.State(0.6) != BreakerHalfOpen {
		t.Fatal("configured cooldown not applied")
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

// FuzzRetrySchedule checks the backoff invariants over arbitrary
// configurations: delays are positive, capped (jitter included), monotone
// non-decreasing until the cap, and bit-identical across two walks with one
// seed.
func FuzzRetrySchedule(f *testing.F) {
	f.Add(1e-4, 5e-3, 2.0, 0.0, int64(1))
	f.Add(1e-6, 1e-2, 1.5, 0.3, int64(99))
	f.Add(0.0, 0.0, 0.0, 1.0, int64(7))
	f.Add(3.0, 1e-3, 10.0, 0.5, int64(-4)) // base above cap
	f.Fuzz(func(t *testing.T, base, cap, factor, jitter float64, seed int64) {
		if math.IsNaN(base) || math.IsInf(base, 0) || base < 0 || base > 1e6 ||
			math.IsNaN(cap) || math.IsInf(cap, 0) || cap < 0 || cap > 1e6 ||
			math.IsNaN(factor) || math.IsInf(factor, 0) || factor < 0 || factor > 1e3 ||
			math.IsNaN(jitter) || math.IsInf(jitter, 0) || jitter < 0 || jitter > 1 {
			t.Skip()
		}
		b := Backoff{Base: base, Cap: cap, Factor: factor, Jitter: jitter}.Defaults()
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		prev := 0.0
		for i := 1; i <= 24; i++ {
			d1, d2 := b.Delay(i, r1), b.Delay(i, r2)
			if d1 != d2 {
				t.Fatalf("retry %d: two seeded walks diverge: %g vs %g", i, d1, d2)
			}
			if d1 <= 0 || math.IsNaN(d1) || math.IsInf(d1, 0) {
				t.Fatalf("retry %d: delay %g not positive finite", i, d1)
			}
			if max := b.Cap * (1 + b.Jitter); d1 > max+1e-12*max {
				t.Fatalf("retry %d: delay %g above cap+jitter bound %g", i, d1, max)
			}
			nj := b
			nj.Jitter = 0
			base := nj.Delay(i, nil)
			if i > 1 && base < prev-1e-12*prev {
				t.Fatalf("retry %d: jitter-free schedule decreased: %g -> %g", i, prev, base)
			}
			prev = base
		}
	})
}
