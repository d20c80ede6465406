// Package storagetest is the conformance suite every storage.Backend must
// pass. A backend package calls Run from its own tests with a constructor;
// the suite drives File.Submit in every request form the storage helpers
// build — blocking and not, Try and must-succeed, one extent and many — and
// Backend.Drain, and checks the contract the consumers rely on:
//
//   - data is durable at issue time (unwaited and staged writes included);
//   - multi-extent requests move exactly the bytes one-extent requests would;
//   - every job's requests pass the admission policy under its own JobID;
//   - two identical runs produce identical virtual times and Stats.
//
// The suite runs single-rank, but for the two-job QoS case: the cross-rank
// semantics are covered by the collective goldens, which all ride on the
// same backend methods.
package storagetest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/storage"
)

// stripe is the geometry every conformance case uses: small enough that a
// few-KB write crosses several targets.
var stripe = storage.Stripe{Count: 4, Size: 1 << 10}

// pattern fills buf with a deterministic byte stream keyed by tag and off.
func pattern(buf []byte, tag, off int64) {
	for i := range buf {
		buf[i] = byte(tag*151 + (off+int64(i))*11 + 5)
	}
}

// run spins up a single-rank engine around body and returns the final
// virtual clock (the determinism handle).
func run(t *testing.T, mk func() storage.Backend, body func(r *mpi.Rank, be storage.Backend)) float64 {
	t.Helper()
	be := mk()
	var end float64
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		body(r, be)
		end = r.Now()
	})
	return end
}

// Run executes the conformance suite against the backend mk constructs.
// name labels the subtests; mk must return a fresh, identically-seeded
// backend on every call (the determinism case compares two of them).
func Run(t *testing.T, name string, mk func() storage.Backend) {
	t.Run(name+"/name", func(t *testing.T) {
		be := mk()
		if be.Name() == "" {
			t.Fatal("Name() is empty")
		}
		p := be.Params()
		if p.CostScale <= 0 {
			t.Fatalf("Params().CostScale = %g, want > 0", p.CostScale)
		}
	})

	t.Run(name+"/roundtrip", func(t *testing.T) {
		run(t, mk, func(r *mpi.Rank, be storage.Backend) {
			f := be.Open(r, "rt", stripe)
			if got := f.Stripe(); got != stripe {
				t.Fatalf("Stripe() = %+v, want %+v", got, stripe)
			}
			buf := make([]byte, 3000)
			pattern(buf, 1, 100)
			storage.Write(r, f, 100, buf)
			if got := f.Size(); got < 3100 {
				t.Fatalf("Size() = %d after write to [100,3100)", got)
			}
			if got := storage.Read(r, f, 100, 3000); !bytes.Equal(got, buf) {
				t.Fatal("Read returned different bytes than Write stored")
			}
			// Overwrite a middle window and re-check both edges survive.
			mid := make([]byte, 500)
			pattern(mid, 2, 0)
			storage.Write(r, f, 1000, mid)
			want := append([]byte{}, buf...)
			copy(want[900:], mid)
			if got := storage.Read(r, f, 100, 3000); !bytes.Equal(got, want) {
				t.Fatal("overwrite corrupted neighboring bytes")
			}
		})
	})

	t.Run(name+"/try-and-async-durable-at-issue", func(t *testing.T) {
		run(t, mk, func(r *mpi.Rank, be storage.Backend) {
			f := be.Open(r, "async", stripe)
			b1 := make([]byte, 700)
			pattern(b1, 3, 0)
			if err := storage.TryWrite(r, f, 0, b1); err != nil {
				t.Fatalf("TryWrite on a healthy backend: %v", err)
			}
			b2 := make([]byte, 700)
			pattern(b2, 4, 0)
			w := &storage.Req{Write: true, Exts: []storage.Extent{{Off: 700, Len: 700}}, Bufs: [][]byte{b2}}
			if done := storage.Must(r, f, w); done < r.Now() {
				t.Fatalf("write completion %g before now %g", done, r.Now())
			}
			// The contract: bytes are visible immediately, not at `done`.
			if got := f.Peek(700, 700); !bytes.Equal(got, b2) {
				t.Fatal("async write not durable at issue time")
			}
			if got, err := storage.TryRead(r, f, 0, 700); err != nil || !bytes.Equal(got, b1) {
				t.Fatalf("TryRead: err=%v, match=%v", err, bytes.Equal(got, b1))
			}
			rd := &storage.Req{Exts: []storage.Extent{{Off: 700, Len: 700}}}
			if rdone := storage.Must(r, f, rd); rdone < r.Now() {
				t.Fatalf("read completion %g before now %g", rdone, r.Now())
			}
			if len(rd.Bufs) != 1 || !bytes.Equal(rd.Bufs[0], b2) {
				t.Fatal("Submit read returned different bytes than stored")
			}
		})
	})

	t.Run(name+"/vectored-matches-scalar-data", func(t *testing.T) {
		exts := []storage.Extent{{Off: 0, Len: 512}, {Off: 2048, Len: 256}, {Off: 8192, Len: 1024}}
		bufs := make([][]byte, len(exts))
		for i, e := range exts {
			bufs[i] = make([]byte, e.Len)
			pattern(bufs[i], int64(10+i), e.Off)
		}
		run(t, mk, func(r *mpi.Rank, be storage.Backend) {
			f := be.Open(r, "vec", stripe)
			storage.Do(r, f, &storage.Req{Write: true, Exts: exts, Bufs: bufs})
			rd := &storage.Req{Exts: exts}
			storage.Do(r, f, rd)
			got := rd.Bufs
			if len(got) != len(exts) {
				t.Fatalf("vectored read returned %d bufs, want %d", len(got), len(exts))
			}
			for i := range exts {
				if !bytes.Equal(got[i], bufs[i]) {
					t.Fatalf("extent %d: vectored read != vectored write", i)
				}
				// Scalar reads must see the vectored writes too.
				if sc := storage.Read(r, f, exts[i].Off, exts[i].Len); !bytes.Equal(sc, bufs[i]) {
					t.Fatalf("extent %d: scalar read != vectored write", i)
				}
			}
			// Async vectored: durable at issue, completion not in the past.
			abufs := make([][]byte, len(exts))
			aexts := make([]storage.Extent, len(exts))
			for i, e := range exts {
				aexts[i] = storage.Extent{Off: e.Off + 1<<20, Len: e.Len}
				abufs[i] = make([]byte, e.Len)
				pattern(abufs[i], int64(20+i), aexts[i].Off)
			}
			if done := storage.Must(r, f, &storage.Req{Write: true, Exts: aexts, Bufs: abufs}); done < r.Now() {
				t.Fatalf("async vectored write completion %g before now %g", done, r.Now())
			}
			for i, e := range aexts {
				if !bytes.Equal(f.Peek(e.Off, e.Len), abufs[i]) {
					t.Fatalf("extent %d: async vectored write not durable at issue", i)
				}
			}
			ard := &storage.Req{Exts: aexts}
			if rdone := storage.Must(r, f, ard); rdone < r.Now() {
				t.Fatalf("async vectored read completion %g before now %g", rdone, r.Now())
			}
			for i := range aexts {
				if !bytes.Equal(ard.Bufs[i], abufs[i]) {
					t.Fatalf("extent %d: async vectored read != stored bytes", i)
				}
			}
		})
	})

	t.Run(name+"/drain-then-contents", func(t *testing.T) {
		run(t, mk, func(r *mpi.Rank, be storage.Backend) {
			f := be.Open(r, "drained", stripe)
			buf := make([]byte, 4096)
			pattern(buf, 7, 0)
			storage.Write(r, f, 0, buf)
			if err := be.Drain(r); err != nil {
				t.Fatalf("Drain on a healthy backend: %v", err)
			}
			if got := f.Contents(); !bytes.Equal(got, buf) {
				t.Fatal("Contents() after Drain != written bytes")
			}
		})
	})

	t.Run(name+"/punch-zeroes-in-place", func(t *testing.T) {
		run(t, mk, func(r *mpi.Rank, be storage.Backend) {
			f := be.Open(r, "punched", stripe)
			buf := make([]byte, 4096)
			pattern(buf, 8, 0)
			storage.Write(r, f, 0, buf)
			f.Punch(1000, 500)
			if got := f.Size(); got != 4096 {
				t.Fatalf("Size() = %d after Punch, want 4096 (Punch must not shrink)", got)
			}
			for i, b := range f.Peek(1000, 500) {
				if b != 0 {
					t.Fatalf("byte %d = %#x after Punch, want 0", 1000+i, b)
				}
			}
			if !bytes.Equal(f.Peek(0, 1000), buf[:1000]) || !bytes.Equal(f.Peek(1500, 2596), buf[1500:]) {
				t.Fatal("Punch disturbed bytes outside its range")
			}
			// A rewrite heals the hole completely.
			storage.Write(r, f, 1000, buf[1000:1500])
			if got := storage.Read(r, f, 0, 4096); !bytes.Equal(got, buf) {
				t.Fatal("rewrite after Punch did not restore the original bytes")
			}
		})
	})

	t.Run(name+"/healthy-trydrain-and-zero-retrystats", func(t *testing.T) {
		run(t, mk, func(r *mpi.Rank, be storage.Backend) {
			f := be.Open(r, "healthy", stripe)
			buf := make([]byte, 2048)
			pattern(buf, 9, 0)
			storage.Write(r, f, 0, buf)
			if err := be.Drain(r); err != nil {
				t.Fatalf("Drain on a healthy backend: %v", err)
			}
			if rs := be.RetryStats(); rs != (recovery.RetryStats{}) {
				t.Fatalf("RetryStats() = %+v on a healthy backend, want all zero", rs)
			}
		})
	})

	t.Run(name+"/ledger-audits-stores", func(t *testing.T) {
		run(t, mk, func(r *mpi.Rank, be storage.Backend) {
			led := storage.NewLedger(42)
			be.SetLedger(led)
			f := be.Open(r, "audited", stripe)
			buf := make([]byte, 3000)
			pattern(buf, 12, 0)
			storage.Write(r, f, 512, buf)
			if err := be.Drain(r); err != nil {
				t.Fatalf("Drain on a healthy backend: %v", err)
			}
			if got := storage.SumLen(led.Acked("audited")); got != 3000 {
				t.Fatalf("ledger acknowledged %d bytes, want 3000", got)
			}
			if err := led.VerifyFile("audited", f); err != nil {
				t.Fatalf("ledger audit of a healthy run: %v", err)
			}
			// The audit must actually bite: punching acknowledged bytes
			// without a re-dump is exactly the corruption it exists to catch.
			f.Punch(1024, 256)
			if err := led.VerifyFile("audited", f); err == nil {
				t.Fatal("ledger audit passed over punched (corrupt) bytes")
			}
			storage.Write(r, f, 1024, buf[512:768])
			if err := led.VerifyFile("audited", f); err != nil {
				t.Fatalf("ledger audit after healing rewrite: %v", err)
			}
			be.SetLedger(nil)
		})
	})

	t.Run(name+"/qos-admits-every-job", func(t *testing.T) {
		be := mk()
		pol := qos.NewFIFO()
		be.SetQoS(pol)
		mpi.Run(2, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			id := r.WorldRank()
			r.SetJob(id, []int{id})
			storage.Write(r, be.Open(r, fmt.Sprintf("job%d", id), stripe), 0, make([]byte, 2048))
		})
		u := pol.Usage()
		for id := 0; id < 2; id++ {
			if j := u[id]; j.Requests == 0 || j.ServiceSecs <= 0 {
				t.Fatalf("job %d usage %+v, want Requests > 0 and ServiceSecs > 0 (all: %+v)", id, j, u)
			}
		}
	})

	t.Run(name+"/deterministic", func(t *testing.T) {
		one := func() (float64, string) {
			var stats []storage.TargetStat
			end := run(t, mk, func(r *mpi.Rank, be storage.Backend) {
				f := be.Open(r, "det", stripe)
				buf := make([]byte, 1536)
				for i := 0; i < 8; i++ {
					pattern(buf, int64(i), int64(i)*1536)
					storage.Write(r, f, int64(i)*1536, buf)
				}
				storage.Do(r, f, &storage.Req{
					Write: true,
					Exts:  []storage.Extent{{Off: 100, Len: 64}, {Off: 9000, Len: 64}},
					Bufs:  [][]byte{make([]byte, 64), make([]byte, 64)},
				})
				storage.Read(r, f, 0, 4096)
				if err := be.Drain(r); err != nil {
					t.Fatalf("Drain on a healthy backend: %v", err)
				}
				stats = be.Stats()
			})
			return end, fmt.Sprintf("%+v", stats)
		}
		e1, s1 := one()
		e2, s2 := one()
		if e1 != e2 {
			t.Fatalf("virtual end times differ across identical runs: %g vs %g", e1, e2)
		}
		if s1 != s2 {
			t.Fatalf("Stats() differ across identical runs:\n%s\nvs\n%s", s1, s2)
		}
	})
}

// RunAllocs is the allocation leg for backends whose healthy path owns
// its scratch: a one-extent write through a caller-owned Req — the
// collective flush's untranslated path — allocates nothing per call, even
// rewriting the same range again and again.
func RunAllocs(t *testing.T, name string, mk func() storage.Backend) {
	t.Run(name+"/scalar-submit-allocates-nothing", func(t *testing.T) {
		run(t, mk, func(r *mpi.Rank, be storage.Backend) {
			f := be.Open(r, "alloc", stripe)
			q := &storage.Req{Write: true, Exts: []storage.Extent{{Off: 0, Len: 4096}}, Bufs: [][]byte{make([]byte, 4096)}}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := f.Submit(r, q); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("scalar Submit: %v allocations per call, want 0", allocs)
			}
		})
	})
}

// Fault-window timing shared by RunFaults and the backend plans it runs
// against. A conforming constructor arms its fault plan so that requests
// (or staged drains) issued inside [FaultAt, FaultAt+FaultFor) fail, and
// the window is one-shot: the script writes once before the window, once
// inside it (expecting the typed error), then recovers past its end.
const (
	FaultAt = 1e-3 // virtual seconds into the run the fault window opens
	// FaultFor is the window length. The in-window write enters FaultFor/8
	// after the window opens, and its whole retry budget must fail inside
	// it: at the default request overhead that budget (6 attempts, their
	// backoff and breaker holds) spans 9.4 ms of virtual time.
	FaultFor = 16e-3
)

func allZero(b []byte) bool { return bytes.Equal(b, make([]byte, len(b))) }

// RunFaults is the fault-injection conformance leg: inject → typed error →
// recover → checksum-verified read-back. mk must return a fresh backend
// whose fault plan fails requests inside the [FaultAt, FaultAt+FaultFor)
// window — via OSTFails, ServerFails, or a BBFail at FaultAt with a drain
// slow enough that the pre-window write is still staged (one-shot windows;
// see the constants above). The script accepts either typed failure the
// storage seam defines:
//
//   - *recovery.TargetError — a retry engine exhausted its budget (or hit
//     permanence) against a failing target; the failed write stored nothing
//     (all-or-nothing) and a whole-operation retry after the window lands;
//   - *storage.StagingLostError — a staging node died holding the earlier
//     acknowledged write; the lost ranges read as zeroes until the caller
//     re-dumps them, which the script does from its master image.
//
// Either way the run must end with Drain clean, every byte equal to the
// master image, and the integrity ledger's audit passing. The whole script
// runs twice and must land on the identical virtual clock.
func RunFaults(t *testing.T, name string, mk func() storage.Backend) {
	t.Run(name+"/inject-recover-verify", func(t *testing.T) {
		one := func() float64 {
			return run(t, mk, func(r *mpi.Rank, be storage.Backend) {
				led := storage.NewLedger(7)
				be.SetLedger(led)
				f := be.Open(r, "flt", stripe)
				master := make([]byte, 8192)

				// Before the window: a healthy write must succeed.
				w1 := make([]byte, 2048)
				pattern(w1, 30, 0)
				if now := r.Now(); now >= FaultAt {
					t.Fatalf("clock %g already inside the fault window before the first write", now)
				}
				if err := storage.TryWrite(r, f, 0, w1); err != nil {
					t.Fatalf("TryWrite before the fault window: %v", err)
				}
				copy(master, w1)

				// Step into the window and write again: the typed error must
				// surface, and all-or-nothing means the target range stays
				// untouched.
				if now := r.Now(); now < FaultAt {
					r.Compute(FaultAt - now + FaultFor/8)
				}
				w2 := make([]byte, 1024)
				pattern(w2, 31, 4096)
				err := storage.TryWrite(r, f, 4096, w2)
				if err == nil {
					t.Fatal("TryWrite inside the fault window succeeded, want a typed error")
				}
				if !allZero(f.Peek(4096, 1024)) {
					t.Fatal("failed TryWrite left bytes behind (all-or-nothing violated)")
				}
				var sl *storage.StagingLostError
				var te *recovery.TargetError
				switch {
				case errors.As(err, &sl):
					// Staging loss: the plan killed the node holding w1.
					if sl.File != "flt" || len(sl.Lost) == 0 {
						t.Fatalf("StagingLostError names file %q with %d extents, want %q with some", sl.File, len(sl.Lost), "flt")
					}
					for _, e := range sl.Lost {
						if !allZero(f.Peek(e.Off, e.Len)) {
							t.Fatalf("lost range [%d,%d) not punched to zeroes", e.Off, e.End())
						}
					}
					// Re-dump the lost ranges from the master image.
					for _, e := range sl.Lost {
						if err := storage.TryWrite(r, f, e.Off, master[e.Off:e.End()]); err != nil {
							t.Fatalf("re-dump of lost range [%d,%d): %v", e.Off, e.End(), err)
						}
					}
				case errors.As(err, &te):
					// Retry exhaustion against a failing target: the engine
					// must have actually retried before giving up.
					if te.Attempts < 2 {
						t.Fatalf("TargetError after %d attempt(s), want >= 2 (no retry ran)", te.Attempts)
					}
					if rs := be.RetryStats(); rs.Failures == 0 || rs.Exhausted == 0 {
						t.Fatalf("RetryStats() = %+v after exhaustion, want Failures > 0 and Exhausted > 0", rs)
					}
				default:
					t.Fatalf("fault-window error %v (%T) is neither *storage.StagingLostError nor *recovery.TargetError", err, err)
				}

				// Recover: step past the window, retry the failed write until
				// it lands (a staging tier's first retry goes straight through
				// write-through; a retry engine's succeeds once healthy).
				if now := r.Now(); now < FaultAt+FaultFor {
					r.Compute(FaultAt + FaultFor - now + FaultFor/8)
				}
				for i := 0; ; i++ {
					if err := storage.TryWrite(r, f, 4096, w2); err == nil {
						break
					} else if i >= 8 {
						t.Fatalf("TryWrite still failing after the window: %v", err)
					}
					r.Compute(FaultFor)
				}
				copy(master[4096:], w2)

				if err := be.Drain(r); err != nil {
					t.Fatalf("Drain after recovery: %v", err)
				}
				if got, rerr := storage.TryRead(r, f, 0, 8192); rerr != nil || !bytes.Equal(got, master) {
					t.Fatalf("read-back after recovery: err=%v, bytes match=%v", rerr, rerr == nil && bytes.Equal(got, master))
				}
				if err := led.Verify("flt", f.Peek); err != nil {
					t.Fatalf("integrity-ledger audit after recovery: %v", err)
				}
			})
		}
		if e1, e2 := one(), one(); e1 != e2 {
			t.Fatalf("fault-recovery runs land on different virtual clocks: %g vs %g", e1, e2)
		}
	})
}
