package nbio

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// run executes body on one simulated rank.
func run(body func(r *mpi.Rank)) {
	mpi.Run(1, cluster.DefaultConfig(), 1, body)
}

func TestWaitChargesExposedTail(t *testing.T) {
	run(func(r *mpi.Rank) {
		q := Start(r, r.Now()+2.0, nil, nil, nil)
		if q.Done() || q.Test() {
			t.Fatal("request with future tail reported complete")
		}
		q.Wait()
		if !q.Done() {
			t.Fatal("not done after Wait")
		}
		if q.Hidden() != 0 || q.Exposed() != 2.0 {
			t.Errorf("hidden=%g exposed=%g want 0/2", q.Hidden(), q.Exposed())
		}
		if r.Now() != q.At() {
			t.Errorf("Wait left clock at %g want %g", r.Now(), q.At())
		}
	})
}

func TestComputeHidesTail(t *testing.T) {
	run(func(r *mpi.Rank) {
		q := Start(r, r.Now()+1.0, nil, nil, nil)
		r.Compute(3.0) // clock passes the tail: progress engine completes it
		if !q.Done() {
			t.Fatal("request not completed in background")
		}
		q.Wait() // idempotent
		if q.Hidden() != 1.0 || q.Exposed() != 0 {
			t.Errorf("hidden=%g exposed=%g want 1/0", q.Hidden(), q.Exposed())
		}
	})
}

func TestPartialOverlapSplitsTail(t *testing.T) {
	run(func(r *mpi.Rank) {
		q := Start(r, r.Now()+2.0, nil, nil, nil)
		r.Compute(0.5)
		q.Wait()
		if q.Hidden() != 0.5 || q.Exposed() != 1.5 {
			t.Errorf("hidden=%g exposed=%g want 0.5/1.5", q.Hidden(), q.Exposed())
		}
		if got := q.Hidden() + q.Exposed(); got != q.At()-q.Issued() {
			t.Errorf("hidden+exposed=%g want tail %g", got, q.At()-q.Issued())
		}
	})
}

func TestImmediateCompletion(t *testing.T) {
	run(func(r *mpi.Rank) {
		released := false
		q := Start(r, r.Now(), nil, func() { released = true }, nil)
		if !q.Done() || !released {
			t.Error("zero-tail request did not complete at Start")
		}
	})
}

func TestFinishDefersCompletionToWait(t *testing.T) {
	run(func(r *mpi.Rank) {
		finished := false
		q := Start(r, r.Now()+0.5, func() { finished = true }, nil, nil)
		r.Compute(1.0) // tail becomes due and is hidden...
		if q.Done() || q.Test() || finished {
			t.Fatal("request with finish step completed without Wait")
		}
		q.Wait()
		if !q.Done() || !finished {
			t.Fatal("Wait did not run finish step")
		}
		if q.Hidden() != 0.5 || q.Exposed() != 0 {
			t.Errorf("hidden=%g exposed=%g want 0.5/0", q.Hidden(), q.Exposed())
		}
	})
}

func TestReleaseRunsExactlyOnce(t *testing.T) {
	run(func(r *mpi.Rank) {
		n := 0
		q := Start(r, r.Now()+1.0, nil, func() { n++ }, nil)
		q.Wait()
		q.Wait()
		q.Test()
		if n != 1 {
			t.Errorf("release ran %d times", n)
		}
	})
}

func TestOnCompleteOrderAndLateRegistration(t *testing.T) {
	run(func(r *mpi.Rank) {
		var order []int
		q := Start(r, r.Now()+1.0, nil, nil, nil)
		q.OnComplete(func(*Request) { order = append(order, 1) })
		q.OnComplete(func(*Request) { order = append(order, 2) })
		q.Wait()
		q.OnComplete(func(*Request) { order = append(order, 3) }) // already done: immediate
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Errorf("callback order %v", order)
		}
	})
}

func TestTestCompletesDueTailForFree(t *testing.T) {
	run(func(r *mpi.Rank) {
		q := Start(r, r.Now()+1.0, nil, nil, nil)
		t0 := r.Now()
		r.Compute(2.0)
		if !q.Test() {
			t.Fatal("Test missed a due tail")
		}
		if r.Now() != t0+2.0 {
			t.Error("Test advanced the clock")
		}
		if q.Hidden() != 1.0 || q.Exposed() != 0 {
			t.Errorf("hidden=%g exposed=%g want 1/0", q.Hidden(), q.Exposed())
		}
	})
}

func TestWaitallCompletesInVirtualTimeOrder(t *testing.T) {
	run(func(r *mpi.Rank) {
		var order []string
		a := Start(r, r.Now()+2.0, nil, nil, nil)
		a.OnComplete(func(*Request) { order = append(order, "a") })
		b := Start(r, r.Now()+1.0, nil, nil, nil)
		b.OnComplete(func(*Request) { order = append(order, "b") })
		// Waitall(nil-safe) waits in slice order, but b's earlier tail falls
		// inside a's exposed wait, so the progress engine completes b first —
		// fully hidden, at no extra cost.
		Waitall(nil, a, b)
		if len(order) != 2 || order[0] != "b" || order[1] != "a" {
			t.Errorf("completion order %v want [b a]", order)
		}
		if b.Hidden() != 1.0 || b.Exposed() != 0 {
			t.Errorf("b hidden=%g exposed=%g want 1/0", b.Hidden(), b.Exposed())
		}
		if r.Now() != a.At() { // b's tail was inside a's
			t.Errorf("clock %g want %g", r.Now(), a.At())
		}
	})
}

func TestOpPayload(t *testing.T) {
	run(func(r *mpi.Rank) {
		q := Start(r, r.Now(), nil, nil, "payload")
		if q.Op().(string) != "payload" {
			t.Error("Op payload lost")
		}
	})
}
