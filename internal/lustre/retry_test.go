package lustre

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/recovery"
	"repro/internal/storage"
)

func runFSCfg(t *testing.T, cfg Config, nprocs int, body func(r *mpi.Rank, fs *FS)) float64 {
	t.Helper()
	fs := NewFS(cfg)
	return mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		body(r, fs)
	})
}

// TestRetryAbsorbsTransientFailures: a write that lands inside a flaky
// window succeeds byte-exactly after retries, costs strictly more virtual
// time than the healthy run, and books the failures in the retry counters.
func TestRetryAbsorbsTransientFailures(t *testing.T) {
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 11)
	}
	run := func(plan *fault.Plan) (float64, recovery.RetryStats) {
		cfg := DefaultConfig()
		cfg.Jitter = 0
		cfg.TailProb = 0
		cfg.Faults = plan
		var st recovery.RetryStats
		end := runFSCfg(t, cfg, 1, func(r *mpi.Rank, fs *FS) {
			f := fs.Open(r, "flaky", smallStripe())
			storage.Write(r, f, 0, data)
			if got := storage.Read(r, f, 0, int64(len(data))); !bytes.Equal(got, data) {
				t.Error("read-after-write mismatch under transient failures")
			}
			st = fs.RetryStats()
		})
		return end, st
	}
	healthy, hst := run(nil)
	if hst.Attempts != 0 || hst.Failures != 0 {
		t.Fatalf("healthy run booked retry work: %+v", hst)
	}
	// A certain-failure one-shot window [0, 2ms): every early attempt
	// fails, and the backoff schedule carries each request past the
	// window's end well inside the 6-attempt budget.
	flaky := &fault.Plan{OSTFails: []fault.OSTFail{{OST: -1, Prob: 1, At: 0, For: 2e-3}}}
	end, st := run(flaky)
	if st.Failures == 0 || st.Retries == 0 {
		t.Fatalf("no failures injected: %+v", st)
	}
	if st.Exhausted != 0 {
		t.Fatalf("transient window exhausted the budget: %+v", st)
	}
	if end <= healthy {
		t.Errorf("failures cost no time: %g <= %g", end, healthy)
	}
}

// TestRetryDeterministic: two runs under one flaky plan are bit-identical in
// end time and counters.
func TestRetryDeterministic(t *testing.T) {
	run := func() (float64, recovery.RetryStats) {
		cfg := DefaultConfig()
		cfg.Faults = &fault.Plan{OSTFails: []fault.OSTFail{{OST: 0, Prob: 0.5, At: 0, For: 1e-2}}}
		var st recovery.RetryStats
		end := runFSCfg(t, cfg, 2, func(r *mpi.Rank, fs *FS) {
			f := fs.Open(r, "d", smallStripe())
			storage.Write(r, f, int64(r.WorldRank())*8192, make([]byte, 8192))
			storage.Read(r, f, 0, 4096)
			if r.WorldRank() == 0 {
				st = fs.RetryStats()
			}
		})
		return end, st
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("runs differ: (%x, %+v) vs (%x, %+v)", e1, s1, e2, s2)
	}
}

// TestBreakerOpensUnderSustainedFailure: a long certain-failure window trips
// the per-OST breaker (exhausting budgets along the way) and the open
// breaker's hold-offs are accounted as backoff time.
func TestBreakerOpensUnderSustainedFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &fault.Plan{OSTFails: []fault.OSTFail{{OST: 0, Prob: 1, At: 0, For: 0.5}}}
	runFSCfg(t, cfg, 1, func(r *mpi.Rank, fs *FS) {
		f := fs.Open(r, "b", storage.Stripe{Count: 1, Size: 1024})
		for i := 0; i < 3; i++ {
			if err := storage.TryWrite(r, f, 0, []byte("x")); err == nil {
				t.Fatal("write inside a certain-failure window succeeded")
			}
		}
		st := fs.RetryStats()
		if st.BreakerOpens == 0 {
			t.Fatalf("breaker never opened: %+v", st)
		}
		if st.Exhausted != 3 {
			t.Fatalf("exhausted = %d, want 3", st.Exhausted)
		}
		if st.BackoffSecs <= 0 {
			t.Fatalf("no backoff time booked: %+v", st)
		}
		ost := fs.Stats()[0]
		if ost.Errors == 0 {
			t.Fatal("OST error counter untouched")
		}
	})
}
