package fault

import (
	"math/rand"
	"testing"
)

func TestIsZero(t *testing.T) {
	var nilPlan *Plan
	cases := []struct {
		name string
		p    *Plan
		want bool
	}{
		{"nil", nilPlan, true},
		{"empty", &Plan{}, true},
		{"named-only", &Plan{Name: "healthy"}, true},
		{"straggler", &Plan{Stragglers: []Straggler{{Rank: 1, Factor: 2}}}, false},
		{"round-noise", &Plan{RoundNoise: RoundNoise{Rank: -1, Prob: 0.1, Stall: 1e-3}}, false},
		{"ost", &Plan{OSTs: []OSTFault{{OST: 0, Scale: 2}}}, false},
		{"net-jitter", &Plan{Net: NetFault{JitterProb: 0.1, JitterDelay: 1e-5}}, false},
		{"net-bw", &Plan{Net: NetFault{NodeBWScale: map[int]float64{0: 2}}}, false},
		{"net-loss", &Plan{Net: NetFault{LossProb: 0.05, RTO: 5e-4}}, false},
		{"crash", &Plan{Crashes: []Crash{{Rank: 0, Call: 1, Round: 1}}}, false},
		{"ost-fail", &Plan{OSTFails: []OSTFail{{OST: 0, Prob: 0.5}}}, false},
	}
	for _, c := range cases {
		if got := c.p.IsZero(); got != c.want {
			t.Errorf("%s: IsZero() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestComputeScale(t *testing.T) {
	p := &Plan{Stragglers: []Straggler{
		{Rank: 1, Factor: 4},
		{Rank: -1, Factor: 1.5},
		{Rank: 2, Factor: 0.5}, // < 1: speedups are not a fault, ignored
	}}
	if got := p.ComputeScale(0); got != 1.5 {
		t.Errorf("rank 0 scale = %v, want 1.5 (wildcard only)", got)
	}
	if got := p.ComputeScale(1); got != 6 {
		t.Errorf("rank 1 scale = %v, want 6 (4 * wildcard 1.5)", got)
	}
	if got := p.ComputeScale(2); got != 1.5 {
		t.Errorf("rank 2 scale = %v, want 1.5 (sub-1 factor ignored)", got)
	}
	if got := (&Plan{}).ComputeScale(0); got != 1 {
		t.Errorf("zero plan scale = %v, want 1", got)
	}
}

func TestOSTScale(t *testing.T) {
	p := &Plan{OSTs: []OSTFault{{OST: 0, Scale: 3}, {OST: -1, Scale: 2}}}
	if got := p.OSTScale(0); got != 6 {
		t.Errorf("OST 0 scale = %v, want 6", got)
	}
	if got := p.OSTScale(5); got != 2 {
		t.Errorf("OST 5 scale = %v, want 2", got)
	}
	var nilPlan *Plan
	if got := nilPlan.OSTScale(0); got != 1 {
		t.Errorf("nil plan OST scale = %v, want 1", got)
	}
}

func TestOSTDownDelay(t *testing.T) {
	// One-shot window [0.5, 0.6).
	one := &Plan{OSTs: []OSTFault{{OST: 0, DownAt: 0.5, DownFor: 0.1}}}
	if got := one.OSTDownDelay(0, 0.4); got != 0 {
		t.Errorf("before window: %v, want 0", got)
	}
	if got := one.OSTDownDelay(0, 0.5); !close(got, 0.1) {
		t.Errorf("window start: %v, want 0.1", got)
	}
	if got := one.OSTDownDelay(0, 0.55); !close(got, 0.05) {
		t.Errorf("mid window: %v, want 0.05", got)
	}
	if got := one.OSTDownDelay(0, 0.6); got != 0 {
		t.Errorf("window end is exclusive: %v, want 0", got)
	}
	if got := one.OSTDownDelay(1, 0.55); got != 0 {
		t.Errorf("other OST: %v, want 0", got)
	}

	// Periodic: [0.1+k*1.0, +0.2).
	per := &Plan{OSTs: []OSTFault{{OST: -1, DownAt: 0.1, DownFor: 0.2, DownEvery: 1.0}}}
	for _, k := range []float64{0, 1, 5} {
		if got := per.OSTDownDelay(3, 0.15+k); !close(got, 0.15) {
			t.Errorf("period %v: %v, want 0.15", k, got)
		}
		if got := per.OSTDownDelay(3, 0.5+k); got != 0 {
			t.Errorf("up phase of period %v: %v, want 0", k, got)
		}
	}

	// DownFor == 0 disables downtime even with DownAt set.
	off := &Plan{OSTs: []OSTFault{{OST: 0, DownAt: 0.5}}}
	if got := off.OSTDownDelay(0, 0.5); got != 0 {
		t.Errorf("DownFor=0: %v, want 0", got)
	}
}

// TestDeliveryDelayDrawDiscipline checks the determinism contract's key
// clause: an inactive perturbation consumes no random draws, and an active
// one consumes draws in a fixed order — so installing a healthy plan cannot
// shift any downstream random stream.
func TestDeliveryDelayDrawDiscipline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(7))
	zero := &Plan{}
	if d := zero.DeliveryDelay(0, 1, 0, rng); d != 0 {
		t.Errorf("zero plan delay = %v, want 0", d)
	}
	if got := rng.Int63(); got != before {
		t.Error("zero plan consumed a random draw")
	}

	// Always-jitter plan: delay bounded by JitterDelay + SpikeDelay, >= 0.
	p := &Plan{Net: NetFault{JitterProb: 1, JitterDelay: 1e-4, SpikeProb: 1, SpikeDelay: 1e-3}}
	rng = rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		d := p.DeliveryDelay(0, 1, 0, rng)
		if d < 1e-3 || d > 1e-3+1e-4 {
			t.Fatalf("delay %v outside [1e-3, 1.1e-3]", d)
		}
	}

	// Same seed, same draws: bit-identical delays.
	a, b := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	j := &Plan{Net: NetFault{JitterProb: 0.5, JitterDelay: 1e-4}}
	for i := 0; i < 100; i++ {
		if da, db := j.DeliveryDelay(0, 1, 0, a), j.DeliveryDelay(0, 1, 0, b); da != db {
			t.Fatalf("draw %d: %v != %v", i, da, db)
		}
	}
}

func TestRoundStall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var nilPlan *Plan
	if d := nilPlan.RoundStall(0, rng); d != 0 {
		t.Errorf("nil plan stall = %v", d)
	}

	// Rank-targeted noise: other ranks draw nothing.
	p := &Plan{RoundNoise: RoundNoise{Rank: 1, Prob: 1, Stall: 2e-3}}
	rng = rand.New(rand.NewSource(3))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(3))
	if d := p.RoundStall(0, rng); d != 0 {
		t.Errorf("unafflicted rank stall = %v", d)
	}
	if got := rng.Int63(); got != before {
		t.Error("unafflicted rank consumed a draw")
	}
	if d := p.RoundStall(1, rng); d != 2e-3 {
		t.Errorf("afflicted rank stall = %v, want 2e-3", d)
	}

	// Certain common + certain tail stack.
	both := &Plan{RoundNoise: RoundNoise{Rank: -1, Prob: 1, Stall: 1e-3, TailProb: 1, TailStall: 1e-2}}
	if d := both.RoundStall(5, rng); !close(d, 1.1e-2) {
		t.Errorf("stacked stall = %v, want 1.1e-2", d)
	}
}

func TestScenarioCatalog(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("catalog has %d scenarios: %v", len(names), names)
	}
	for _, n := range names {
		p, err := Scenario(n)
		if err != nil {
			t.Fatalf("Scenario(%q): %v", n, err)
		}
		if p.Name != n {
			t.Errorf("Scenario(%q).Name = %q", n, p.Name)
		}
		if n == Healthy != p.IsZero() {
			t.Errorf("scenario %q: IsZero = %v", n, p.IsZero())
		}
	}
	if _, err := Scenario("no-such"); err == nil {
		t.Error("unknown scenario did not error")
	}
	// Fresh plan per call: callers may tweak their copy.
	a, _ := Scenario(HotOST)
	b, _ := Scenario(HotOST)
	if a == b {
		t.Error("Scenario returned a shared plan")
	}
}

func TestStorageTierHooks(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.HasBBFails() || nilPlan.HasDrainFails() || nilPlan.HasServerFails() {
		t.Fatal("nil plan claims storage faults")
	}
	if _, ok := nilPlan.BBFailAt(0); ok {
		t.Fatal("nil plan kills a bb node")
	}
	if nilPlan.DrainErrorAt(0, 1, nil) {
		t.Fatal("nil plan fails a drain")
	}

	p := &Plan{
		BBFails:     []BBFail{{Node: 2, At: 3e-3}, {Node: -1, At: 5e-3}},
		DrainFails:  []DrainFail{{Node: 1, Prob: 1, At: 1e-2, For: 5e-3, Every: 2e-2}},
		ServerFails: []OSTFail{{OST: 0, Prob: 1, At: 1e-3, For: 2e-3}},
	}
	if !p.HasBBFails() || !p.HasDrainFails() || !p.HasServerFails() || p.IsZero() {
		t.Fatal("storage families not reported")
	}
	// BBFailAt: node 2 matches both entries, earliest wins; node 7 only the
	// wildcard.
	if at, ok := p.BBFailAt(2); !ok || at != 3e-3 {
		t.Fatalf("BBFailAt(2) = %v, %v", at, ok)
	}
	if at, ok := p.BBFailAt(7); !ok || at != 5e-3 {
		t.Fatalf("BBFailAt(7) = %v, %v", at, ok)
	}

	// DrainErrorAt: windows are [At+k*Every, At+k*Every+For); Prob 1 is
	// draw-free (nil rng must not panic).
	if p.DrainErrorAt(1, 5e-3, nil) {
		t.Error("drain failed before the first window")
	}
	if !p.DrainErrorAt(1, 1.2e-2, nil) || !p.DrainErrorAt(1, 3.2e-2, nil) {
		t.Error("drain inside a window did not fail")
	}
	if p.DrainErrorAt(1, 1.8e-2, nil) || p.DrainErrorAt(0, 1.2e-2, nil) {
		t.Error("drain outside window or on other node failed")
	}
	// Probabilistic windows consume exactly one draw per covering entry.
	q := &Plan{DrainFails: []DrainFail{{Node: -1, Prob: 0.5, At: 0, For: 1}}}
	a, b := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	if q.DrainErrorAt(0, 0.5, a) != (b.Float64() < 0.5) {
		t.Error("drain draw pattern differs from a bare Float64")
	}

	// ServerErrorAt mirrors OSTErrorAt's window semantics on ServerFails.
	if !p.ServerErrorAt(0, 2e-3, nil) {
		t.Error("server request inside the window did not fail")
	}
	if p.ServerErrorAt(0, 5e-3, nil) {
		t.Error("server request after the window failed")
	}
	if p.ServerErrorAt(1, 2e-3, nil) {
		t.Error("surviving server failed")
	}
}

func TestSeverityPlan(t *testing.T) {
	if p := SeverityPlan(0); !p.IsZero() {
		t.Error("severity 0 is not a zero plan")
	}
	lo, hi := SeverityPlan(1), SeverityPlan(4)
	if lo.IsZero() || hi.IsZero() {
		t.Fatal("nonzero severity produced a zero plan")
	}
	if hi.RoundNoise.Stall != 4*lo.RoundNoise.Stall || hi.RoundNoise.TailStall != 4*lo.RoundNoise.TailStall {
		t.Errorf("stall magnitudes do not scale linearly: %+v vs %+v", lo.RoundNoise, hi.RoundNoise)
	}
	if lo.RoundNoise.Rank != -1 {
		t.Error("severity noise must afflict every rank")
	}
}

func TestAggCrashed(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.AggCrashed(0, 1, 0) {
		t.Error("nil plan reports a crash")
	}
	p := &Plan{Crashes: []Crash{{Rank: 3, Call: 2, Round: 1}}}
	cases := []struct {
		rank, call, round int
		want              bool
	}{
		{0, 2, 1, false}, // other rank never crashes
		{3, 1, 5, false}, // earlier call: still alive
		{3, 2, 0, false}, // crash call, round before the crash point
		{3, 2, 1, true},  // exact crash point
		{3, 2, 7, true},  // later round of the crash call
		{3, 3, 0, true},  // crashes are permanent across calls
	}
	for _, c := range cases {
		if got := p.AggCrashed(c.rank, c.call, c.round); got != c.want {
			t.Errorf("AggCrashed(%d, %d, %d) = %v, want %v", c.rank, c.call, c.round, got, c.want)
		}
	}
	// Call 0 means "the first call".
	first := &Plan{Crashes: []Crash{{Rank: 1, Call: 0, Round: 2}}}
	if first.AggCrashed(1, 1, 1) || !first.AggCrashed(1, 1, 2) {
		t.Error("Call 0 does not normalize to the first call")
	}
	if p.IsZero() || !p.HasCrashes() {
		t.Error("crash plan misclassified")
	}
}

func TestOSTErrorAt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var nilPlan *Plan
	if nilPlan.OSTErrorAt(0, 1, rng) {
		t.Error("nil plan fails a request")
	}

	// Deterministic failure inside periodic windows [k*0.02, k*0.02+0.005).
	p := &Plan{OSTFails: []OSTFail{{OST: 0, Prob: 1, At: 0, For: 5e-3, Every: 2e-2}}}
	if !p.OSTErrorAt(0, 1e-3, rng) {
		t.Error("in-window request did not fail")
	}
	if p.OSTErrorAt(0, 1e-2, rng) {
		t.Error("out-of-window request failed")
	}
	if !p.OSTErrorAt(0, 2.1e-2, rng) {
		t.Error("second-period in-window request did not fail")
	}
	if p.OSTErrorAt(1, 1e-3, rng) {
		t.Error("other OST failed")
	}

	// Outside every window, no draw is consumed even with Prob < 1.
	flaky := &Plan{OSTFails: []OSTFail{{OST: 0, Prob: 0.5, At: 1, For: 1}}}
	a := rand.New(rand.NewSource(9))
	before := a.Int63()
	a = rand.New(rand.NewSource(9))
	flaky.OSTErrorAt(0, 0.5, a)
	if got := a.Int63(); got != before {
		t.Error("out-of-window check consumed a random draw")
	}
}

func TestDeliveryDelayLoss(t *testing.T) {
	// Certain loss: every copy up to the retransmit cap is dropped, so the
	// delay is exactly maxRetransmits*RTO — bounded, never a deadlock.
	p := &Plan{Net: NetFault{LossProb: 1, RTO: 1e-3}}
	rng := rand.New(rand.NewSource(2))
	if d := p.DeliveryDelay(0, 1, 0.5, rng); !close(d, float64(maxRetransmits)*1e-3) {
		t.Errorf("certain-loss delay = %v, want %v", d, float64(maxRetransmits)*1e-3)
	}

	// Delays are multiples of RTO and bit-identical across seeds.
	w := &Plan{Net: NetFault{LossProb: 0.5, RTO: 1e-3}}
	x, y := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		dx, dy := w.DeliveryDelay(0, 1, 1.5, x), w.DeliveryDelay(0, 1, 1.5, y)
		if dx != dy {
			t.Fatalf("draw %d: %v != %v", i, dx, dy)
		}
		k := dx / 1e-3
		if k != float64(int(k)) || k < 0 || k > float64(maxRetransmits) {
			t.Fatalf("delay %v is not a bounded RTO multiple", dx)
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}
