package storage

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mpi"
	"repro/internal/recovery"
)

// The request forms callers build from File.Submit, written once: blocking
// charges the rank's ClassIO clock for the completion wait, must-succeed
// panics on the error, and scalar is a one-extent Req.

// Must submits q and returns its virtual completion time, panicking on an
// error: the nonblocking must-succeed form.
func Must(r *mpi.Rank, f File, q *Req) float64 {
	done, err := f.Submit(r, q)
	if err != nil {
		fail(f, q.Write, err)
	}
	return done
}

// Do submits q and waits for it, panicking on an error: the blocking
// must-succeed form.
func Do(r *mpi.Rank, f File, q *Req) {
	done := Must(r, f, q)
	r.ChargeIO(done - r.Now())
}

// Write writes data at off; blocking, must-succeed.
func Write(r *mpi.Rank, f File, off int64, data []byte) {
	if _, err := scalar(r, f, true, false, off, int64(len(data)), data); err != nil {
		fail(f, true, err)
	}
}

// Read reads n bytes at off (unwritten bytes read as zero); blocking,
// must-succeed.
func Read(r *mpi.Rank, f File, off, n int64) []byte {
	out, err := scalar(r, f, false, false, off, n, nil)
	if err != nil {
		fail(f, false, err)
	}
	return out
}

// TryWrite writes data at off as a Try request and returns the typed error
// instead of panicking. The elapsed time is charged either way; on error no
// bytes are stored.
func TryWrite(r *mpi.Rank, f File, off int64, data []byte) error {
	_, err := scalar(r, f, true, true, off, int64(len(data)), data)
	return err
}

// TryRead reads n bytes at off as a Try request and returns the typed error
// instead of panicking. The elapsed time is charged either way; on error
// the data is nil.
func TryRead(r *mpi.Rank, f File, off, n int64) ([]byte, error) {
	return scalar(r, f, false, true, off, n, nil)
}

// reqs recycles the scalar helpers' requests, each allocated together with
// its one-extent backing arrays, so a loop of them allocates nothing beyond
// the data it reads.
var reqs = sync.Pool{New: func() any {
	s := new(struct {
		q   Req
		ext [1]Extent
		buf [1][]byte
	})
	s.q.Exts, s.q.Bufs = s.ext[:0], s.buf[:0]
	return &s.q
}}

// scalar submits the one-extent request [off, off+n) and charges its
// completion wait; a read returns its data.
func scalar(r *mpi.Rank, f File, write, try bool, off, n int64, data []byte) ([]byte, error) {
	q := reqs.Get().(*Req)
	q.Write, q.Try = write, try
	q.Exts = append(q.Exts[:0], Extent{Off: off, Len: n})
	q.Bufs = q.Bufs[:0]
	if write {
		q.Bufs = append(q.Bufs, data)
	}
	done, err := f.Submit(r, q)
	r.ChargeIO(done - r.Now())
	var out []byte
	if !write && err == nil {
		out = q.Bufs[0]
	}
	clear(q.Bufs)
	reqs.Put(q)
	return out, err
}

// fail panics with a must-succeed request's error, prefixed by the failing
// layer, the request's direction and the file's name.
func fail(f File, write bool, err error) {
	layer, op, name := "storage", "ReadvAt", ""
	var te *recovery.TargetError
	if errors.As(err, &te) {
		layer = te.Layer
	}
	if write {
		op = "WritevAt"
	}
	if n, ok := f.(interface{ Name() string }); ok {
		name = n.Name()
	}
	panic(fmt.Sprintf("%s: %s on %q: %v", layer, op, name, err))
}
