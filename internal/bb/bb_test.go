package bb

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/storage"
)

var testStripe = storage.Stripe{Count: 4, Size: 1 << 20}

func runOne(t *testing.T, cfg Config, body func(r *mpi.Rank, tier *Tier)) *Tier {
	t.Helper()
	tier := New(lustre.NewFS(lustre.DefaultConfig()), cfg)
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) { body(r, tier) })
	return tier
}

// TestAbsorbCheaperThanUnder: the same write must stall the caller for less
// virtual time through the staging tier than against the bare backend —
// that is the tier's entire reason to exist.
func TestAbsorbCheaperThanUnder(t *testing.T) {
	buf := make([]byte, 8<<20)
	elapsed := func(mk func() storage.Backend) float64 {
		var dt float64
		be := mk()
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			f := be.Open(r, "x", testStripe)
			t0 := r.Now()
			storage.Write(r, f, 0, buf)
			dt = r.Now() - t0
		})
		return dt
	}
	direct := elapsed(func() storage.Backend { return lustre.NewFS(lustre.DefaultConfig()) })
	staged := elapsed(func() storage.Backend { return New(lustre.NewFS(lustre.DefaultConfig()), Config{}) })
	if staged >= direct {
		t.Fatalf("staged write cost %g >= direct write cost %g", staged, direct)
	}
}

// TestCountersAndDurability: an absorbed write counts absorbed bytes, is
// readable at memory speed before any drain completes, and lands byte-exact
// in the under-backend immediately (durable at issue).
func TestCountersAndDurability(t *testing.T) {
	buf := bytes.Repeat([]byte{0x5A}, 1<<20)
	runOne(t, Config{}, func(r *mpi.Rank, tier *Tier) {
		f := tier.Open(r, "c", testStripe)
		storage.Write(r, f, 0, buf)
		a, _, w := tier.Counters()
		if a != 1<<20 || w != 0 {
			t.Fatalf("after absorb: absorbed=%d writethrough=%d, want %d/0", a, w, 1<<20)
		}
		if got := tier.under.Open(r, "c", testStripe).Peek(0, 1<<20); !bytes.Equal(got, buf) {
			t.Fatal("staged write not durable in under-backend at issue time")
		}
		if got := storage.Read(r, f, 0, 1<<20); !bytes.Equal(got, buf) {
			t.Fatal("read-back through the tier mismatched")
		}
	})
}

// TestWritethroughWhenFull: writes past Capacity bypass staging and count
// as writethrough, and the data still round-trips.
func TestWritethroughWhenFull(t *testing.T) {
	buf := make([]byte, 1<<20)
	runOne(t, Config{Capacity: 1 << 20}, func(r *mpi.Rank, tier *Tier) {
		f := tier.Open(r, "full", testStripe)
		storage.Write(r, f, 0, buf)     // fits exactly
		storage.Write(r, f, 1<<20, buf) // no room left: write through
		a, _, w := tier.Counters()
		if a != 1<<20 {
			t.Fatalf("absorbed = %d, want %d", a, 1<<20)
		}
		if w != 1<<20 {
			t.Fatalf("writethrough = %d, want %d", w, 1<<20)
		}
		if got := storage.Read(r, f, 0, 2<<20); int64(len(got)) != 2<<20 {
			t.Fatalf("read-back length %d, want %d", len(got), 2<<20)
		}
	})
}

// TestFIFOReclaimFreesCapacity: once enough virtual time passes for staged
// drains to complete, their capacity is reclaimed in FIFO order and new
// writes absorb again instead of writing through.
func TestFIFOReclaimFreesCapacity(t *testing.T) {
	buf := make([]byte, 1<<20)
	runOne(t, Config{Capacity: 1 << 20}, func(r *mpi.Rank, tier *Tier) {
		f := tier.Open(r, "reclaim", testStripe)
		storage.Write(r, f, 0, buf)
		// Let the drain finish: a long compute phase advances the clock past
		// every issued drain completion.
		r.Compute(10)
		storage.Write(r, f, 1<<20, buf)
		a, d, w := tier.Counters()
		if w != 0 {
			t.Fatalf("writethrough = %d after reclaim window, want 0", w)
		}
		if a != 2<<20 {
			t.Fatalf("absorbed = %d, want %d", a, 2<<20)
		}
		if d != 1<<20 {
			t.Fatalf("drained = %d, want %d (the first write's entry)", d, 1<<20)
		}
	})
}

// TestDrainBarrierCharges: Drain must charge exactly the staged tail and
// leave nothing pending (a second Drain is free).
func TestDrainBarrierCharges(t *testing.T) {
	buf := make([]byte, 16<<20)
	runOne(t, Config{DrainBandwidth: 1e8}, func(r *mpi.Rank, tier *Tier) {
		f := tier.Open(r, "drain", testStripe)
		storage.Write(r, f, 0, buf)
		t0 := r.Now()
		tier.Drain(r)
		if r.Now() <= t0 {
			t.Fatal("Drain right after a big staged write charged no time")
		}
		_, d, _ := tier.Counters()
		if d != 16<<20 {
			t.Fatalf("drained = %d after Drain, want %d", d, 16<<20)
		}
		t1 := r.Now()
		tier.Drain(r)
		if r.Now() != t1 {
			t.Fatal("second Drain with nothing staged charged time")
		}
	})
}

// TestObsCounters: the registry counters mirror the tier's counters.
func TestObsCounters(t *testing.T) {
	reg := obs.New()
	buf := make([]byte, 1<<20)
	tier := New(lustre.NewFS(lustre.DefaultConfig()), Config{Capacity: 1 << 20})
	tier.SetObs(reg)
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		f := tier.Open(r, "obs", testStripe)
		storage.Write(r, f, 0, buf)
		storage.Write(r, f, 1<<20, buf)
		tier.Drain(r)
	})
	snap := reg.Snapshot()
	got := make(map[string]uint64)
	for _, c := range snap.Counters {
		got[c.Name] = c.Value
	}
	want := map[string]uint64{
		"storage.bb.absorbed.bytes":     1 << 20,
		"storage.bb.writethrough.bytes": 1 << 20,
		"storage.bb.drained.bytes":      1 << 20,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
}

// TestTryWriteRoutesThroughInjectingUnder: over an under-backend whose
// fault plan injects request errors, a Try write goes through the
// under-backend's error path (counted write-through) so typed errors and
// retry accounting surface as they would without the tier, while a plain
// write on the same tier still absorbs into staging memory.
func TestTryWriteRoutesThroughInjectingUnder(t *testing.T) {
	cfg := lustre.DefaultConfig()
	cfg.Faults = &fault.Plan{Name: "flaky", OSTFails: []fault.OSTFail{{OST: 0, Prob: 0.35, At: 1, For: 5e-3}}}
	tier := New(lustre.NewFS(cfg), Config{})
	buf := bytes.Repeat([]byte{0x3C}, 1<<20)
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		f := tier.Open(r, "try", testStripe)
		if err := storage.TryWrite(r, f, 0, buf); err != nil {
			t.Fatalf("Try write outside the fault window: %v", err)
		}
		if a, _, w := tier.Counters(); a != 0 || w != 1<<20 {
			t.Fatalf("after Try write: absorbed=%d writethrough=%d, want 0/%d", a, w, 1<<20)
		}
		storage.Write(r, f, 1<<20, buf)
		if a, _, w := tier.Counters(); a != 1<<20 || w != 1<<20 {
			t.Fatalf("after plain write: absorbed=%d writethrough=%d, want %d/%d", a, w, 1<<20, 1<<20)
		}
	})
	// One attempt for the Try write, one for the plain write's drain: the
	// under-backend's retry engine served both.
	if rs := tier.RetryStats(); rs != (recovery.RetryStats{Attempts: 2}) {
		t.Fatalf("RetryStats() = %+v, want two clean attempts", rs)
	}
}
