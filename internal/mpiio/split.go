package mpiio

import "repro/internal/nbio"

// Split collectives: MPI_File_write_all_begin/end and the read twins — the
// round driver of ext2ph.go with pipelining on.
//
// Writes: the aggregator stages each round in one of two arena buffers and
// issues the round's OST writes asynchronously, so round k+1's alltoall and
// data exchange run while round k's write is still in flight. Before a
// staging buffer is refilled, the write that last used it is waited for —
// any still-outstanding tail is exposed and charged, the rest was hidden by
// the intervening rounds. Up to two writes are still in flight when Begin
// returns; application compute between Begin and End lets the sim progress
// engine retire them in the background, and WriteAllEnd charges only what
// remains.
//
// Reads run the pipeline in the other direction: an aggregator's window
// extents for round k+1 are computable locally from the plan (see
// domain.extentsIn), so the prefetch into the idle staging buffer is
// issued before round k is served. Every rank's final-round receive is
// deferred into ReadAllEnd, so compute between Begin and End also hides the
// last serve's delivery latency.
//
// At most one split operation may be outstanding per file: End must be
// called before the next collective on the same handle (the per-call tag
// sequence assumes it, as does the shared round state).

// track accumulates a tail request's hidden/exposed split into the file's
// overlap stats (and trace) whenever — and however — it completes.
func (f *File) track(q *nbio.Request) *nbio.Request {
	q.OnComplete(func(q *nbio.Request) {
		f.ovl.Hidden += q.Hidden()
		f.ovl.Exposed += q.Exposed()
		if tr := f.tr; tr != nil {
			if h := q.Hidden(); h > 0 {
				tr.Add(f.r.WorldRank(), "hidden", q.Issued(), q.Issued()+h, "")
			}
			if e := q.Exposed(); e > 0 {
				tr.Add(f.r.WorldRank(), "exposed", q.At()-e, q.At(), "")
			}
		}
		if f.obsHidden != nil {
			if h := q.Hidden(); h > 0 {
				f.obsHidden.Observe(h)
			}
			if e := q.Exposed(); e > 0 {
				f.obsExposed.Observe(e)
			}
		}
	})
	return q
}

// tailReq wraps an async completion time in a tracked request; a tail that
// is already due needs no bookkeeping and stays nil.
func (f *File) tailReq(done float64) *nbio.Request {
	if done <= f.r.Now() {
		return nil
	}
	return f.track(nbio.Start(f.r, done, nil, nil, nil))
}

// WriteAllBegin starts a split collective write. All communicator members
// must call it and later complete it with WriteAllEnd; no other collective
// may run on this file in between.
func (f *File) WriteAllBegin(logOff int64, data []byte) *nbio.Request {
	return f.beginSplit(true, logOff, data)
}

// WriteAllEnd completes a split collective write, waiting out whatever I/O
// tail the work since WriteAllBegin did not hide.
func (f *File) WriteAllEnd(q *nbio.Request) { q.Wait() }

// ReadAllBegin starts a split collective read of n view-logical bytes at
// logOff. Complete it with ReadAllEnd to obtain the data.
func (f *File) ReadAllBegin(logOff, n int64) *nbio.Request {
	return f.beginSplit(false, logOff, make([]byte, n))
}

// ReadAllEnd completes a split collective read and returns the data.
func (f *File) ReadAllEnd(q *nbio.Request) []byte {
	q.Wait()
	return q.Op().(*call).data
}

// beginSplit runs a call's rounds pipelined and wraps what remains — the
// in-flight tails, a read's final delivery — in a request for End to wait
// on. A call that could not pipeline (see begin) has already done all its
// work; Begin/End callers need no failure-mode awareness.
func (f *File) beginSplit(write bool, logOff int64, data []byte) *nbio.Request {
	c := f.begin(write, true, logOff, data)
	return nbio.Start(f.r, f.r.Now(), c.finish, c.release, c)
}
